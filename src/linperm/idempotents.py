"""Primitive idempotents of F_q[x]/(x^n - 1) and component projections.

Because gcd(n, q) = 1 the quotient ring is semisimple: x^n - 1 splits into
distinct irreducible factors f_i and the ring decomposes as a direct product
of fields F_q[x]/(f_i). Each factor carries a unique primitive idempotent
e_i, computed here by the derivative formula e_i = n^{-1} x f_i' h_i mod
(x^n - 1) with h_i = (x^n - 1)/f_i (MacWilliams-Sloane, ch. 8). A closed-form
route exists for n = p^m when the order of q mod p^m is large enough; both
routes are exposed and cross-check each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _polys
from .errors import (
    BadInput,
    ConditionNotMet,
    InternalError,
    LengthMismatch,
    SpecMismatch,
)
from .fields import _is_prime, integer_order_mod
from .polyring import (
    CyclotomicCoset,
    Poly,
    RingElement,
    RingSpec,
    cyclotomic_cosets,
    factor_xn_minus_1,
    ring_mul,
)

__all__ = [
    "Component",
    "IdempotentBasis",
    "ComponentVector",
    "primitive_idempotents",
    "closed_form_pm",
    "cor4_condition",
    "project",
    "reconstruct",
    "is_idempotent",
    "is_primitive_idempotent",
]


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
class IdempotentBasis:
    spec: RingSpec
    components: tuple[Component, ...]

    def __post_init__(self):
        _check_basis_invariants(self.spec, self.components)

    @property
    def t(self) -> int:
        return len(self.components)

    @property
    def idempotents(self) -> tuple[RingElement, ...]:
        return tuple(c.idempotent for c in self.components)


@dataclass(frozen=True)
class ComponentVector:
    """Entries (f_1, ..., f_t) of an element's image in the product of fields."""

    spec: RingSpec
    entries: tuple[RingElement, ...]


def _check_basis_invariants(spec: RingSpec, components) -> None:
    """e_i^2 = e_i, e_i f_i = 0, sum e_i = 1 and one component per coset;
    raised as InternalError since a violation means the construction itself
    is broken.

    These imply e_i e_j = 0 for i != j: e_i f_i = 0 means h_i = (x^n - 1)/f_i
    divides e_i, and lcm(h_i, h_j) = x^n - 1, since x^n - 1 is squarefree
    and ``factor_xn_minus_1`` checks that the product of the f_i is x^n - 1.
    """
    total = spec.zero()
    for i, c in enumerate(components):
        e = c.idempotent
        if ring_mul(e, e) != e:
            raise InternalError(f"component {i}: e^2 != e")
        if not ring_mul(e, spec.from_poly(c.factor)).is_zero():
            raise InternalError(f"component {i}: e * f != 0")
        total = total + e
    if total != spec.one():
        raise InternalError("idempotents do not sum to 1")
    if len(components) != len(cyclotomic_cosets(spec)):
        raise InternalError("component count != number of cyclotomic cosets")


@lru_cache(maxsize=None)
def primitive_idempotents(spec: RingSpec) -> IdempotentBasis:
    """Derivative formula: e_i = n^{-1} x f_i' h_i mod (x^n - 1), with h_i =
    (x^n - 1)/f_i the cofactor.

    Differentiating x^n - 1 = prod_j f_j gives n x^(n-1) = sum_j f_j' h_j.
    Every h_j with j != i has the factor f_i, so x f_i' h_i = n x^n = n mod
    f_i, while h_i has every other factor; so e_i is 1 mod f_i and 0 mod the
    rest. Components come back ordered by cyclotomic coset representative, so
    the all-ones component (coset of 0, factor x - 1) is always index 0.
    """
    base, modulus = spec.base, spec.modulus()
    n_inv = pow(spec.n, -1, base.p)
    components = []
    for coset, factor in factor_xn_minus_1(spec):
        x_deriv = _polys._x_derivative(base, factor.coords)
        scaled = Poly(base, tuple(v * n_inv % base.p for v in x_deriv))
        e = spec.from_poly(scaled * (modulus // factor))
        components.append(Component(coset, factor, e))
    return IdempotentBasis(spec, tuple(components))


def cor4_condition(p: int, m: int, q: int) -> bool:
    """Whether the closed-form idempotents for n = p^m are primitive.

    Holds when p = 2 with m = 1 (q odd) or m = 2 (q = 3 mod 4), or when p is
    odd and q generates the full unit group mod p^m.
    """
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
    which matches the ordering of ``primitive_idempotents``.
    """
    if spec.n != p**m:
        raise BadInput(f"n = {spec.n} is not {p}^{m}")
    q = spec.base.q
    if not cor4_condition(p, m, q):
        raise ConditionNotMet(
            f"closed form is not primitive for p={p}, m={m}, q={q}"
        )
    by_factor = {c.representative: (c, f) for c, f in factor_xn_minus_1(spec)}
    # each coefficient lies in the prime field: the first coordinate of its slot
    coords = np.zeros((m + 1, spec.n, spec.base.k), dtype=np.int64)
    coords[:, :, 0] = _closed_form_rows(p, m, spec.base.p)
    components = [
        Component(
            *by_factor[p ** (m - i) if i else 0],
            idempotent=RingElement(spec, tuple(row.ravel().tolist())),
        )
        for i, row in enumerate(coords)
    ]
    components.sort(key=lambda c: c.coset.representative)
    return IdempotentBasis(spec, tuple(components))


def project(f: RingElement, basis: IdempotentBasis) -> ComponentVector:
    """Component entries of f: the remainder of f mod each factor f_i.

    Canonicalizing to remainders (degree < deg f_i) makes vector equality
    meaningful; any representative with f*e_i = entry*e_i would do.
    """
    if f.spec != basis.spec:
        raise SpecMismatch("element and basis from different rings")
    poly = f.to_poly()
    entries = tuple(
        basis.spec.from_poly(poly % c.factor) for c in basis.components
    )
    return ComponentVector(basis.spec, entries)


def reconstruct(v: ComponentVector, basis: IdempotentBasis) -> RingElement:
    """Sum of entry_i * e_i, the inverse of project."""
    if v.spec != basis.spec:
        raise SpecMismatch("vector and basis from different rings")
    if len(v.entries) != len(basis.components):
        raise LengthMismatch(
            f"{len(v.entries)} entries for {len(basis.components)} components"
        )
    out = basis.spec.zero()
    for entry, comp in zip(v.entries, basis.components):
        out = out + ring_mul(entry, comp.idempotent)
    return out


def is_idempotent(f: RingElement) -> bool:
    return ring_mul(f, f) == f


def is_primitive_idempotent(f: RingElement, basis: IdempotentBasis) -> bool:
    """True iff f is one of the basis elements.

    Every idempotent of the ring is a subset sum of the primitive ones, so
    membership in the computed basis decides primitivity.
    """
    return any(f == c.idempotent for c in basis.components)
