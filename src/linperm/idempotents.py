"""Primitive idempotents of F_q[x]/(x^n - 1) and component projections.

Because gcd(n, q) = 1 the quotient ring is semisimple: x^n - 1 splits into
distinct irreducible factors f_i and the ring decomposes as a direct product
of fields F_q[x]/(f_i). Each factor carries a unique primitive idempotent
e_i, computed by the trace formula e_s[j] = n^{-1} sum_{u in C_s}
zeta^{-u j} (MacWilliams-Sloane, ch. 8), as the factors are found. A
closed-form route exists for n = p^m when the order of q mod p^m is large
enough; both routes are exposed and cross-check each other.

The isomorphism F_q[x]/(x^n - 1) -> prod_i F_q[x]/(f_i) (the CRT) is one pair
of F_p matrices on flat coordinates, built on first use and cached on the
basis (``IdempotentBasis._crt``), so a basis that is only printed never
builds them. P takes f to its remainders f mod f_i, stacked in blocks of
k*d_i rows (d_i = deg f_i, q = p^k); its column j is x^j mod each f_i. R is
the inverse map: column t of block i is x^t*e_i, the cyclic shift of e_i by
t slots. Both are lifted from F_q by ``_linalg.lift``, and the build raises
``InternalError`` unless P*R = I. ``project`` is P*f, ``reconstruct`` is R
applied to the blocks, and ``_block_inverse`` is R applied to the blocks of a
unit, each inverted by an egcd with its factor; ``linearized`` tests and
inverts units through these helpers and never reads the matrices. Every
product by P or R is one ``_linalg.matmul_mod``, and both are stored in its
dtype for k*n columns (``_linalg.cast_exact``). The derivations that check
this path stay independent of it: the basis invariants below, the gcd and
rank permutation tests, and the ring-inverse and square-to-1 cross-checks
in ``linearized``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import _linalg, _polys
from .errors import (
    BadInput,
    ConditionNotMet,
    InternalError,
    LengthMismatch,
)
from .fields import _as_int, _is_prime, _Value, integer_order_mod
from .polyring import (
    CyclotomicCoset,
    Poly,
    RingElement,
    RingSpec,
    _decomposition,
    cyclotomic_cosets,
    factor_xn_minus_1,
    ring_mul,
)


@dataclass(frozen=True)
class Component:
    """One simple factor of the ring: its coset, irreducible factor and e_i."""

    coset: CyclotomicCoset
    factor: Poly
    idempotent: RingElement

    @property
    def degree(self) -> int:
        return self.factor.degree


@dataclass(frozen=True)
class IdempotentBasis(_Value):
    """Each coset's factor and primitive idempotent, as the one build of the
    ring gives them or a caller lists them, checked by ``_verify_basis``."""

    spec: RingSpec
    components: tuple[Component, ...]

    def __post_init__(self):
        RingSpec._require_class(self.spec)
        _verify_basis(self.spec, self.components)

    @property
    def t(self) -> int:
        return len(self.components)

    @property
    def idempotents(self) -> tuple[RingElement, ...]:
        return tuple(c.idempotent for c in self.components)

    @cached_property
    def _crt(self) -> _CRT:
        return _build_crt(self)


class _CRT(NamedTuple):
    """The decomposition of a basis as F_p matrices (see the module doc)."""

    P: np.ndarray  # f -> (f mod f_i)_i; rows cuts[i]:cuts[i + 1] are block i
    R: np.ndarray  # the inverse of P: column cuts[i] + j*k + l is y^l x^j e_i
    cuts: np.ndarray  # the first row of each block, and k*n at the end
    owner: np.ndarray  # the block of each of the k*n rows


@dataclass(frozen=True)
class ComponentVector(_Value):
    """Entries (f_1, ..., f_t) of an element's image in the product of fields."""

    spec: RingSpec
    entries: tuple[RingElement, ...]


def _verify_basis(spec: RingSpec, components) -> None:
    """One component per cyclotomic coset, in order; for each, deg f = |C|,
    e*f = 0 in the ring (one product) and e = 1 mod f (one division); and
    sum e = 1. A violation means the build is broken: InternalError.

    These make any components the primitive ones, however f was found.
    x^n - 1 is squarefree and divides e*f, and e = 1 mod f, so with
    A = gcd(f, x^n - 1) e is 1 mod A's irreducible factors and 0 mod the
    others (CRT), and A != 1 since deg e < n. The sum puts each irreducible
    factor under some A, so sum deg A >= n = sum |C| = sum deg f >= sum deg A:
    the A are coprime, each is f up to a scalar, and the t of them are the t
    irreducible factors. So e^2 = e and e_i e_j = 0 for i != j.
    """
    if [c.coset for c in components] != cyclotomic_cosets(spec):
        raise InternalError("idempotents: components do not match the cyclotomic cosets")
    base, one = spec.base, Poly.one(spec.base)
    for i, c in enumerate(components):
        RingElement._require(spec, e := c.idempotent)
        Poly._require(base, f := c.factor)
        if (d := f.degree) != (size := len(c.coset.members)):
            raise InternalError(f"idempotents: component {i}: deg f = {d} != |C| = {size}")
        if any(_polys.pcyclic_mul(base, e.coords, f.coords, spec.n)):
            raise InternalError(f"idempotents: component {i}: e * f != 0")
        if e.to_poly() % f != one:
            raise InternalError(f"idempotents: component {i}: e != 1 mod f")
    total = np.sum([c.idempotent.coords for c in components], axis=0) % base.p
    if not np.array_equal(total, spec.one().coords):
        raise InternalError("idempotents: idempotents do not sum to 1")


def _build_crt(basis: IdempotentBasis) -> _CRT:
    """P and R of the basis, checked against each other.

    R needs no arithmetic: its F_q matrix is one gather from the e_i. Column
    j of P is x^j mod f_i in each block, for every j < n and i at once: one
    ``_polys._times_x_powers`` walk over all the factors, each with its
    slots in the top d_i of max(d_i) slots.
    """
    spec, comps = basis.spec, basis.components
    base, n = spec.base, spec.n
    p, k = base.p, base.k
    degrees = np.array([c.degree for c in comps])
    m, top = len(comps), int(degrees.max())
    starts = np.concatenate([[0], np.cumsum(degrees)])
    owner = np.repeat(np.arange(m), degrees)  # the block of each slot
    slot = np.arange(n) - starts[owner]  # its place in the block

    at = top - degrees[owner] + slot  # where each slot sits in the walk
    low = np.zeros((m, top, k), dtype=np.int64)
    low[owner, at] = np.concatenate([np.reshape(c.factor.coords[:-k], (-1, k)) for c in comps])
    one = np.zeros((m, top, k), dtype=np.int64)
    one[np.arange(m), top - degrees, 0] = 1
    # X[j, r] is slot r of x^j mod its factor, r in block order
    X = _polys._times_x_powers(base, low, one, n)[:, owner, at]
    P = _linalg.cast_exact(_linalg.lift(base, X.transpose(1, 0, 2)), p)

    E = np.array([c.idempotent.coords for c in comps]).reshape(m, n, k)
    R = _linalg.cast_exact(_linalg.lift(base, E[owner, (np.arange(n)[:, None] - slot) % n]), p)

    if not np.array_equal(_linalg.matmul_mod(P, R, p), np.eye(k * n, dtype=np.int64)):
        raise InternalError("idempotents: P*R != I, projection and reconstruction disagree")
    for M in (P, R):
        M.flags.writeable = False
    return _CRT(P, R, starts * k, np.repeat(owner, k))


def _blocks(basis: IdempotentBasis, coords) -> np.ndarray:
    """P*f for f's flat coordinates: block i holds those of f mod f_i."""
    return _linalg.matmul_mod(basis._crt.P, coords, basis.spec.base.p)


def _nonzero_blocks(basis: IdempotentBasis, v: np.ndarray) -> np.ndarray:
    """Whether each block of v, a vector of block coordinates, is nonzero."""
    return np.logical_or.reduceat(v, basis._crt.cuts[:-1])


def _combine(basis: IdempotentBasis, u) -> np.ndarray:
    """R*u: the flat coordinates of sum_i u_i*e_i, for u_i the block i of u
    (of degree below d_i)."""
    return _linalg.matmul_mod(basis._crt.R, u, basis.spec.base.p)


def _block_inverse(basis: IdempotentBasis, v: np.ndarray) -> np.ndarray:
    """R*u, u the blocks of v inverted: sum_i u_i*e_i with u_i*v_i = 1 mod
    f_i, each u_i from an egcd with f_i. Every block of v must be nonzero."""
    base = basis.spec.base
    u = np.zeros_like(v)
    cuts = basis._crt.cuts
    for comp, lo, hi in zip(basis.components, cuts[:-1], cuts[1:]):
        # the block is a nonzero remainder mod f_i and g is monic, so g = 1
        # and inv, of degree below f_i, is its inverse mod f_i
        g, inv, _ = _polys.pegcd(base, _polys.ptrim(base, v[lo:hi].tolist()), comp.factor.coords)
        if g != _polys.pone(base):
            raise InternalError("idempotents: component entry not invertible mod its factor")
        u[lo : lo + len(inv)] = inv
    return _combine(basis, u)


def primitive_idempotents(spec: RingSpec) -> IdempotentBasis:
    """The components of ``polyring._decomposition``, the ring's one build,
    which ``factor_xn_minus_1`` reads too: the all-ones component (coset of
    0, factor x - 1) is index 0. The spec is checked before the cache."""
    RingSpec._require_class(spec)
    return _primitive_idempotents(spec)


@lru_cache(maxsize=None)
def _primitive_idempotents(spec: RingSpec) -> IdempotentBasis:
    return IdempotentBasis(spec, tuple(Component(*triple) for triple in _decomposition(spec)))


# the cache's counters stay reachable through the public name
primitive_idempotents.__wrapped__ = _primitive_idempotents


def cor4_condition(p: int, m: int, q: int) -> bool:
    """Whether the closed-form idempotents for n = p^m are primitive.

    Holds when p = 2 with m = 1 (q odd) or m = 2 (q = 3 mod 4), or when p is
    odd and q generates the full unit group mod p^m.
    """
    p, m, q = _as_int(p), _as_int(m), _as_int(q)
    if not _is_prime(p):
        raise BadInput(f"p = {p} is not prime")
    if m < 1:
        raise BadInput("m must be positive")
    if q % p == 0:
        raise BadInput("q must be coprime to p")
    if p == 2:
        return (m == 1 and q % 2 == 1) or (m == 2 and q % 4 == 3)
    totient = p ** (m - 1) * (p - 1)
    return integer_order_mod(q, p**m) == totient


def _closed_form_rows(p: int, m: int, char: int) -> np.ndarray:
    """(m+1, p^m) int array of the closed-form coefficients, all in the prime
    field F_char: row 0 is C_0 and row i is C_i - C_{i-1}, where C_i is the
    partial sum (1/p^{m-i}) sum_{j < p^{m-i}} x^{j p^i}."""
    sums = np.zeros((m + 1, p**m), dtype=np.int64)
    for i in range(m + 1):
        sums[i, :: p**i] = pow(p ** (m - i), -1, char)
    return np.diff(sums, axis=0, prepend=0) % char


def closed_form_pm(spec: RingSpec, p: int, m: int) -> IdempotentBasis:
    """Closed-form idempotents of F_q[x]/(x^{p^m} - 1).

    With C_i the partial sum (1/p^{m-i}) sum_{j < p^{m-i}} x^{j p^i}, the
    basis is e_0 = C_0 and e_i = C_i - C_{i-1} for 1 <= i <= m, the rows of
    ``_closed_form_rows``. Primitive only under cor4_condition; otherwise the
    sums are merely orthogonal and we refuse rather than mislabel them.

    Component i >= 1 is attached to the coset of p^{m-i} and the factor
    Phi_{p^i}(x^{p^{i-1}})-style cyclotomic polynomial sum_{j<p} x^{j p^{i-1}},
    so by coset representative the components are rows 0, m, m - 1, ..., 1.
    """
    RingSpec._require_class(spec)
    if spec.n != (p := _as_int(p)) ** (m := _as_int(m)):
        raise BadInput(f"n = {spec.n} is not {p}^{m}")
    q = spec.base.q
    if not cor4_condition(p, m, q):
        raise ConditionNotMet(f"closed form is not primitive for p={p}, m={m}, q={q}")
    # each coefficient lies in the prime field: the first coordinate of its slot
    coords = np.zeros((m + 1, spec.n, spec.base.k), dtype=np.int64)
    coords[:, :, 0] = _closed_form_rows(p, m, spec.base.p)
    rows = coords[[0, *range(m, 0, -1)]].reshape(m + 1, -1).tolist()
    pairs = zip(factor_xn_minus_1(spec), rows)
    components = (Component(c, f, RingElement(spec, tuple(e))) for (c, f), e in pairs)
    return IdempotentBasis(spec, tuple(components))


def project(f: RingElement, basis: IdempotentBasis) -> ComponentVector:
    """Component entries of f: the remainder of f mod each factor f_i, read
    off the blocks of P*f.

    Canonicalizing to remainders (degree < deg f_i) makes vector equality
    meaningful; any representative with f*e_i = entry*e_i would do.
    """
    IdempotentBasis._require_class(basis)
    RingElement._require(basis.spec, f)
    crt = basis._crt
    entries = np.zeros((basis.t, len(f.coords)), dtype=np.int64)
    entries[crt.owner, np.arange(len(f.coords)) - crt.cuts[crt.owner]] = _blocks(basis, f.coords)
    return ComponentVector(
        basis.spec, tuple(RingElement(basis.spec, tuple(row)) for row in entries.tolist())
    )


def reconstruct(v: ComponentVector, basis: IdempotentBasis) -> RingElement:
    """Sum of entry_i * e_i, the inverse of project: R applied to the blocks.

    entry_i * e_i depends on entry_i mod f_i alone, so an entry of any degree
    is first reduced by its own block of P: row r of P against the entry of
    the block that holds row r.
    """
    IdempotentBasis._require_class(basis)
    ComponentVector._require(basis.spec, v)
    if len(v.entries) != len(basis.components):
        raise LengthMismatch(
            f"{len(v.entries)} entries for {len(basis.components)} components"
        )
    for entry in v.entries:
        RingElement._require(basis.spec, entry)
    owner = basis._crt.owner
    entries = np.array([entry.coords for entry in v.entries], dtype=np.int64)
    reduced = _blocks(basis, entries.T)[np.arange(len(owner)), owner]
    return RingElement(basis.spec, tuple(_combine(basis, reduced).tolist()))


def is_idempotent(f: RingElement) -> bool:
    return ring_mul(f, f) == f  # ring_mul refuses an f that is not a RingElement


def is_primitive_idempotent(f: RingElement, basis: IdempotentBasis) -> bool:
    """True iff f is one of the basis elements.

    Every idempotent of the ring is a subset sum of the primitive ones, so
    membership in the computed basis decides primitivity.
    """
    IdempotentBasis._require_class(basis)
    RingElement._require(basis.spec, f)
    return any(f == c.idempotent for c in basis.components)
