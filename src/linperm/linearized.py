"""Linearized polynomials over F_{q^n} and their compositional structure.

A linearized polynomial F(x) = sum f_i x^{[i]} (with x^{[i]} = x^{q^i},
coefficients in F_{q^n}, kept in reduced form with exactly n slots) induces
an F_q-linear map on F_{q^n}. When all coefficients lie in F_q, F corresponds
to its conventional q-associate f(x) = sum f_i x^i in F_q[x]/(x^n - 1), and
composition of maps matches ring multiplication of associates. That bridge
turns permutation testing into a unit test in the ring (equivalently: f is
coprime to x^n - 1, equivalently no product with a primitive idempotent
vanishes) and compositional inversion into componentwise inversion.

A ``LinearizedPoly`` is stored as ``coords``, one (n, k*n) int array of the
slots' flat coordinates mod p; its ``ExtElement`` constructor and ``coeffs``
are conversions. Every function here reads the array: the support is
``coords.any(axis=1)``, a slot lies in F_q when it is zero past column k, and
``compose`` and the evaluator skip zero slots.
"""

from __future__ import annotations

import itertools
import re
import warnings
from dataclasses import dataclass

import numpy as np

from . import _linalg, _polys
from .errors import (
    BadInput,
    CoefficientsNotInBaseField,
    ConditionNotMet,
    InternalError,
    NotAPermutation,
    SpecMismatch,
    ZeroCoefficient,
    ZeroNotInA,
)
from .fields import (
    ExtElement,
    ExtFieldSpec,
    FieldElement,
    _frobenius_power,
    _mul_rows,
    extension_field,
)
from .idempotents import (
    IdempotentBasis,
    _block_inverse,
    _blocks,
    _check_basis,
    _closed_form_rows,
    _nonzero_blocks,
    cor4_condition,
)
from .polyring import (
    RingElement,
    RingSpec,
    _coords,
    _field_coeff,
    _read_int,
    _sum_terms,
    ring_inverse,
    ring_is_unit,
    ring_mul,
)

__all__ = [
    "LinearizedPoly",
    "identity",
    "has_base_coeffs",
    "conventional_associate",
    "linearized_associate",
    "evaluate",
    "evaluate_many",
    "compose",
    "is_permutation",
    "is_permutation_gcd",
    "is_permutation_rank",
    "coefficient_sum_reject",
    "compositional_inverse",
    "is_involution",
    "sign_vector_involutions",
    "binomial_is_permutation",
    "pm_sufficient_conditions",
    "a_complete_check",
    "a_complete_verdicts",
    "a_complete_sufficient_pm",
    "format_linearized",
    "parse_linearized",
]


@dataclass(frozen=True, eq=False, init=False)
class LinearizedPoly:
    """Reduced-degree linearized polynomial F = sum_i f_i x^{[i]}, 0 <= i < n.

    ``coords`` is the stored form: a read-only (n, k*n) int64 array whose row
    i holds the flat coordinates of f_i mod p, in the layout of
    ``ExtElement.coords``. ``LinearizedPoly(spec, coeffs)``, from n
    ``ExtElement``s, and the ``coeffs`` property are conversions.
    """

    spec: ExtFieldSpec
    coords: np.ndarray

    def __init__(self, spec: ExtFieldSpec, coeffs):
        if len(coeffs) != spec.n:
            raise BadInput(f"expected {spec.n} coefficients, got {len(coeffs)}")
        if any(c.spec != spec for c in coeffs):
            raise SpecMismatch("coefficient from a different field")
        self._set(spec, np.array([c.coords for c in coeffs], dtype=np.int64))

    @classmethod
    def _of(cls, spec: ExtFieldSpec, coords: np.ndarray) -> "LinearizedPoly":
        """Wraps coords, an (n, k*n) int64 array with entries in [0, p), as is."""
        F = object.__new__(cls)
        F._set(spec, coords)
        return F

    def _set(self, spec, coords):
        coords.flags.writeable = False
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "coords", coords)

    @property
    def coeffs(self) -> tuple[ExtElement, ...]:
        return tuple(ExtElement(self.spec, tuple(row)) for row in self.coords.tolist())

    @classmethod
    def monomial(cls, spec: ExtFieldSpec, c: ExtElement, i: int) -> "LinearizedPoly":
        if not 0 <= i < spec.n:
            raise BadInput(f"exponent {i} out of range")
        if c.spec != spec:
            raise SpecMismatch("coefficient from a different field")
        coords = np.zeros((spec.n, len(c.coords)), dtype=np.int64)
        coords[i] = c.coords
        return cls._of(spec, coords)

    def is_zero(self) -> bool:
        return not self.coords.any()

    def __eq__(self, other):
        if not isinstance(other, LinearizedPoly):
            return NotImplemented
        return self.spec == other.spec and self.coords.tobytes() == other.coords.tobytes()

    def __hash__(self):
        return hash(self.coords.tobytes())

    def _check(self, other):
        if not isinstance(other, LinearizedPoly) or other.spec != self.spec:
            raise SpecMismatch("operands from different fields")

    def __add__(self, other):
        self._check(other)
        return LinearizedPoly._of(self.spec, (self.coords + other.coords) % self.spec.base.p)

    def __sub__(self, other):
        self._check(other)
        return LinearizedPoly._of(self.spec, (self.coords - other.coords) % self.spec.base.p)

    def __neg__(self):
        return LinearizedPoly._of(self.spec, -self.coords % self.spec.base.p)

    def __str__(self):
        return format_linearized(self)


def identity(spec: ExtFieldSpec) -> LinearizedPoly:
    """The identity map x, canonical coefficient vector (1, 0, ..., 0)."""
    return LinearizedPoly.monomial(spec, spec.one(), 0)


def _check_poly(F) -> None:
    if not isinstance(F, LinearizedPoly):
        raise SpecMismatch(f"expected a LinearizedPoly, got {type(F).__name__}")


def has_base_coeffs(F: LinearizedPoly) -> bool:
    _check_poly(F)
    return not F.coords[:, F.spec.base.k :].any()


def _base_coords(F: LinearizedPoly) -> np.ndarray:
    """(n, k) int array: row i holds the coordinates of f_i in F_q."""
    if not has_base_coeffs(F):
        raise CoefficientsNotInBaseField(
            "operation requires coefficients in the base field"
        )
    return F.coords[:, : F.spec.base.k]


def conventional_associate(F: LinearizedPoly) -> RingElement:
    """f(x) = sum f_i x^i in F_q[x]/(x^n - 1); same coefficient vector."""
    C = _base_coords(F)
    base = F.spec.base
    ring = RingSpec(base, F.spec.n)
    return ring.element([base.element(c) for c in C.tolist()])


def linearized_associate(f: RingElement, spec: ExtFieldSpec) -> LinearizedPoly:
    if f.spec.base != spec.base or f.spec.n != spec.n:
        raise SpecMismatch("ring and field spec disagree")
    k, n = spec.base.k, spec.n
    coords = np.zeros((n, k * n), dtype=np.int64)
    coords[:, :k] = np.reshape(f.coords, (n, k))
    return LinearizedPoly._of(spec, coords)


def compose(F: LinearizedPoly, G: LinearizedPoly) -> LinearizedPoly:
    """Symbolic product F(G(x)); slot k collects f_i * g_j^{q^i} over i+j = k mod n.

    For each nonzero slot i of F, the nonzero rows of G go through Frob^i and
    are multiplied by f_i in one row-wise product (``fields._mul_rows``).
    """
    F._check(G)
    spec = F.spec
    p, n = spec.base.p, spec.n
    out = np.zeros_like(F.coords)
    g_support = G.coords.any(axis=1).nonzero()[0]
    rows = _linalg.cast_exact(G.coords[g_support], p)
    for i in F.coords.any(axis=1).nonzero()[0].tolist():
        twisted = _linalg.matmul_mod(rows, _frobenius_power(spec, i).T, p)
        out[(g_support + i) % n] += _mul_rows(spec, twisted, F.coords[i : i + 1])
    # each slot gathers at most n products in [0, p)
    return LinearizedPoly._of(spec, out % p)


def _check_field(F: LinearizedPoly, basis: IdempotentBasis) -> None:
    _check_basis(basis)
    if basis.spec.base != F.spec.base or basis.spec.n != F.spec.n:
        raise SpecMismatch("basis from a different ring")


def is_permutation(F: LinearizedPoly, basis: IdempotentBasis) -> bool:
    """Idempotent criterion: F permutes F_{q^n} iff no product f*e_i
    vanishes, that is iff f mod f_i, block i of P*f, is nonzero for every i."""
    C = _base_coords(F)
    _check_field(F, basis)
    return bool(_nonzero_blocks(basis, _blocks(basis, C.ravel())).all())


def is_permutation_gcd(F: LinearizedPoly) -> bool:
    """Unit criterion: gcd(f, x^n - 1) constant."""
    return ring_is_unit(conventional_associate(F))


def _mul_matrix(spec: ExtFieldSpec, c: np.ndarray) -> np.ndarray:
    """F_p matrix of a -> c*a on flat coordinates, c flat: row j of the
    row-wise product of the identity by c is the image of unit vector j."""
    eye = np.eye(spec.base.k * spec.n, dtype=np.int64)
    return _mul_rows(spec, eye, c[None]).T


def is_permutation_rank(F: LinearizedPoly) -> bool:
    """Rank test for arbitrary coefficients: the induced F_q-linear map on
    F_{q^n} must have full rank, k*n as an F_p-linear map (q = p^k).

    The map is sum_i Mul(c_i) Frob^i on flat coordinates, summed in place. A
    coefficient c in F_q acts on every slot through the same k x k block, so
    its term costs no full matrix product; a unit adds Frob^i as it is.
    """
    _check_poly(F)
    spec = F.spec
    base = spec.base
    p, k, n = base.p, base.k, spec.n
    outside = F.coords[:, k:].any(axis=1)
    inner = F.coords[:, :k]
    support = (inner.any(axis=1) | outside).nonzero()[0].tolist()
    if not support:
        return False
    unit = ((inner[:, 0] == 1) & ~inner[:, 1:].any(axis=1) & ~outside).tolist()
    # A term adds to each entry a sum of products of two reduced entries, k
    # of them for a coefficient in F_q and k*n otherwise. Over at most n
    # terms entries stay below n*k*p^2 when every coefficient lies in F_q,
    # and below n*k*n*p^2 in any case; M is summed in the narrowest dtype
    # that holds that bound, and rank_mod reduces it once. Every product
    # names that dtype, since Frob^i is uint16, where a bare int product
    # wraps; an int16 M means p < 182, so Frob^i is then read as int16.
    bound = n * k * p * p * (n if outside.any() else 1)
    dtype = next((t for t in (np.int16, np.int32) if bound <= np.iinfo(t).max), np.int64)
    M = np.zeros((k * n, k * n), dtype=dtype)
    term = np.empty_like(M)
    for i in support:
        Fi = _frobenius_power(spec, i).view(np.int16 if dtype is np.int16 else np.uint16)
        c = F.coords[i]
        if unit[i]:
            np.add(M, Fi, out=M, dtype=dtype)
            continue
        if outside[i]:
            np.matmul(_mul_matrix(spec, c), Fi, out=term, dtype=dtype)
        elif k == 1:
            np.multiply(Fi, c[0], out=term, dtype=dtype)
        else:
            # Mul(c) is block diagonal with c's k x k block: slot j of the
            # image is the block times slot j of Frob^i
            block = _polys._block(base, tuple(c[:k].tolist()))
            np.matmul(block, Fi.reshape(n, k, k * n), out=term.reshape(n, k, k * n), dtype=dtype)
        np.add(M, term, out=M)
    return _linalg.rank_mod(M, p) == k * n


def coefficient_sum_reject(F: LinearizedPoly) -> bool:
    """True (reject) when the coefficients sum to zero in F_q; such F never permutes."""
    return not (_base_coords(F).sum(axis=0) % F.spec.base.p).any()


def compositional_inverse(
    F: LinearizedPoly, basis: IdempotentBasis
) -> LinearizedPoly:
    """Inverse through the component decomposition.

    Block i of P*f is f mod f_i; ``idempotents._block_inverse`` inverts each
    modulo its factor and takes the inverses back to the ring by R. The
    result is cross-checked against the direct ring inverse before
    converting back to linearized form. A zero block, f_i dividing f, is
    exactly a vanishing f*e_i: F does not permute.
    """
    f = conventional_associate(F)
    _check_field(F, basis)
    v = _blocks(basis, f.coords)
    if not _nonzero_blocks(basis, v).all():
        raise NotAPermutation("polynomial is not a linear permutation")
    f_inv = RingElement(f.spec, tuple(_block_inverse(basis, v).tolist()))
    if f_inv != ring_inverse(f):
        raise InternalError("linearized: component inverse disagrees with ring inverse")
    return linearized_associate(f_inv, F.spec)


def is_involution(F: LinearizedPoly) -> bool:
    """Whether F composed with itself is the identity map."""
    if has_base_coeffs(F):
        f = conventional_associate(F)
        return ring_mul(f, f) == f.spec.one()
    return compose(F, F) == identity(F.spec)


def sign_vector_involutions(
    basis: IdempotentBasis, spec: ExtFieldSpec | None = None
) -> list[LinearizedPoly]:
    """All involutions of the form sum of +-e_i (associates of sign vectors).

    In odd characteristic the 2^t sign assignments give 2^t distinct
    involutions and exhaust the square roots of unity in the ring. In
    characteristic 2 the signs coincide and the construction collapses to
    the identity alone. ``spec`` defaults to ``extension_field(q, n, 0)``,
    whose base is ``base_field(q)``; a ring over another model of F_q needs
    its own.
    """
    _check_basis(basis)
    ring = basis.spec
    if spec is None:
        spec = extension_field(ring.base.q, ring.n, 0)
    if not isinstance(spec, ExtFieldSpec) or spec.base != ring.base or spec.n != ring.n:
        raise SpecMismatch("field spec does not match the basis ring")
    if ring.base.p == 2:
        warnings.warn(
            "characteristic 2: +1 = -1, sign vectors all give the identity",
            stacklevel=2,
        )
        return [identity(spec)]
    # row s of signs holds one sign vector; its product with the idempotents
    # is sum_i s_i*e_i, each entry a sum of t products below p^2
    signs = np.array(list(itertools.product((1, -1), repeat=basis.t))) % ring.base.p
    E = np.array([e.coords for e in basis.idempotents], dtype=np.int64)
    out = []
    for row in (signs @ E % ring.base.p).tolist():
        f = RingElement(ring, tuple(row))
        if ring_mul(f, f) != ring.one():
            raise InternalError("linearized: sign vector did not square to 1")
        out.append(linearized_associate(f, spec))
    return out


def binomial_is_permutation(
    fi: FieldElement, fj: FieldElement, i: int, j: int
) -> bool:
    """Binomial criterion: f_i x^{[i]} + f_j x^{[j]} permutes iff f_i + f_j != 0."""
    if fi.is_zero() or fj.is_zero():
        raise ZeroCoefficient("binomial coefficients must be nonzero")
    if not 0 <= i < j:
        raise BadInput("exponents must satisfy 0 <= i < j")
    return not (fi + fj).is_zero()


def pm_sufficient_conditions(F: LinearizedPoly, p: int, m: int) -> bool:
    """Sufficient permutation test for n = p^m via constant terms of f*e_i:
    the A-complete conditions of ``a_complete_sufficient_pm`` with A = {0}.

    True guarantees F is a permutation; False is inconclusive (the conditions
    only force the constant term of each product to be nonzero).
    """
    return a_complete_sufficient_pm(F, [0], p, m)


def a_complete_check(
    F: LinearizedPoly, A, basis: IdempotentBasis | None = None
) -> bool:
    """Exact A-complete test: F + lambda*x must permute for every lambda in A."""
    return all(a_complete_verdicts(F, A, basis))


def a_complete_verdicts(F: LinearizedPoly, A, basis: IdempotentBasis | None = None):
    """Whether F + lambda*x permutes, for each lambda in A in turn.

    Uses the idempotent criterion when coefficients stay in F_q, otherwise
    falls back to the rank test. A must contain 0 (so F itself is included);
    that is checked before the first verdict.
    """
    spec = F.spec
    A = [_as_ext(spec, lam) for lam in A]
    if not any(lam.is_zero() for lam in A):
        raise ZeroNotInA("A must contain 0")
    for lam in A:
        shifted = F + LinearizedPoly.monomial(spec, lam, 0)
        if basis is not None and has_base_coeffs(shifted):
            yield is_permutation(shifted, basis)
        else:
            yield is_permutation_rank(shifted)


def _as_ext(spec: ExtFieldSpec, lam) -> ExtElement:
    if isinstance(lam, ExtElement):
        if lam.spec != spec:
            raise SpecMismatch("shift constant from a different field")
        return lam
    if isinstance(lam, FieldElement):
        return spec.embed(lam)
    return spec.embed_int(lam)


def a_complete_sufficient_pm(F: LinearizedPoly, A, p: int, m: int) -> bool:
    """Sufficient A-complete test for n = p^m, A a subset of F_q containing 0.

    Condition i asks the constant term of (f + lambda)*e_i to be nonzero for
    every lambda in A, e_i the closed-form idempotent of ``closed_form_pm``:
    condition 0 is the coefficient sum plus lambda, times the unit 1/p^m.
    True guarantees A-completeness; False is inconclusive.
    """
    if F.spec.n != p**m:
        raise BadInput(f"n = {F.spec.n} is not {p}^{m}")
    C = _base_coords(F)
    base = F.spec.base
    lams = []
    for lam in A:
        e = _as_ext(F.spec, lam)
        if not e.in_base_field():
            raise BadInput("the sufficient conditions need A inside F_q")
        lams.append(e.coords[: base.k])
    if all(any(lam) for lam in lams):
        raise ZeroNotInA("A must contain 0")
    if not cor4_condition(p, m, base.q):
        raise ConditionNotMet(
            "closed-form idempotents are not primitive for these parameters"
        )
    E = _closed_form_rows(p, m, base.p)
    # row i: the constant term of f*e_i, a sum of p^m products below p^2;
    # lambda*x moves it by lambda*E[i, 0]
    consts = E @ C[-np.arange(p**m) % p**m]
    return all(
        ((consts + np.outer(E[:, 0], lam)) % base.p).any(axis=1).all() for lam in lams
    )


# --- batched evaluation ------------------------------------------------------
#
# The brute-force oracle evaluates through this section alone. It shares the
# row-wise product (``fields._mul_rows``: ``_polys.mulmod_rows`` or the
# product tensor read off its reduction matrix) with the rest of the package
# but builds its own Frobenius powers, so a wrong table in the rank test
# cannot fool the oracle as well.

_powers_held: dict = {}


def _power_table(spec: ExtFieldSpec, top: int) -> np.ndarray:
    """(t, k*n, k*n) array, t > top: row j of slice i holds the flat
    coordinates of u_j^(q^i), u_j the j-th unit vector, so a^(q^i) is
    a @ slice i.

    Slice 1 raises the unit vectors to the q-th power through
    ``_mul_rows``, and slice i + 1 is slice i @ slice 1, since
    a^(q^(i+1)) = (a @ slice i)^q; each entry of that product is below
    k*n*p^2 before its reduction. The table grows only to the highest power
    asked for and is kept per field.
    """
    held = _powers_held.get(spec)
    if held is None or len(held) <= top:
        base = spec.base
        width = base.k * spec.n
        if held is None:
            rows = acc = np.eye(width, dtype=np.int64)
            for bit in bin(base.q)[3:]:
                acc = _mul_rows(spec, acc, acc)
                if bit == "1":
                    acc = _mul_rows(spec, acc, rows)
            held = (rows, acc)
        table = np.empty((max(top + 1, 2), width, width), dtype=np.int64)
        table[: len(held)] = held
        for i in range(len(held), top + 1):
            table[i] = table[i - 1] @ table[1] % base.p
        held = _powers_held[spec] = table
    return held


def evaluate_many(F: LinearizedPoly, A) -> np.ndarray:
    """F at every row of A, an (N, k*n) int array of flat coordinates in
    [0, p): row r of the result holds the flat coordinates of F(A[r]).

    F(a) = sum_i c_i * a^(q^i), the powers read from ``_power_table`` and all
    the products with the coefficients done in one stacked ``_mul_rows``
    call, each c_i one row broadcast over its points. F is evaluated at
    exactly the rows of A; a caller with at least k*n points should apply
    F's image matrix (F at the unit vectors), as the oracle does.
    """
    spec = F.spec
    p, width = spec.base.p, spec.base.k * spec.n
    A = np.asarray(A, dtype=np.int64).reshape(-1, width)
    support = F.coords.any(axis=1).nonzero()[0]
    if not len(support):
        return np.zeros(A.shape, dtype=np.int64)
    powers = A @ _power_table(spec, support[-1])[support] % p  # (terms, N, k*n)
    prod = _mul_rows(spec, powers, F.coords[support][:, None, :])
    # below n*p before the reduction
    return prod.sum(axis=0) % p


def evaluate(F: LinearizedPoly, a: ExtElement) -> ExtElement:
    if not isinstance(a, ExtElement) or a.spec != F.spec:
        raise SpecMismatch("argument from a different field")
    (image,) = evaluate_many(F, [a.coords]).tolist()
    return ExtElement(F.spec, tuple(image))


# --- text format -------------------------------------------------------------

# A linearized term: a sign, then "c*x^[i]" (the "*", the "^[i]" and c itself
# optional); c is an integer, a comma vector or a bracketed vector.
_LIN_TERM = re.compile(
    r"([+-]?)(?:(?:([0-9]+(?:,[0-9]+)*)|(\[-?[0-9]+(?:,-?[0-9]+)*\]))\*?)?x(?:\^\[(-?[0-9]+)\])?"
)


def format_linearized(F: LinearizedPoly) -> str:
    """Terms "c*x^[i]" joined by " + ", descending i; "c*x" for i = 0.

    Unit coefficients are dropped ("x^[6]", "x"); the zero map prints "0".
    Coefficients outside F_q render in the bracketed coordinate form.
    """
    k = F.spec.base.k
    wide = np.count_nonzero(F.coords[:, k:])  # some coefficient outside F_q: read whole rows
    support = F.coords.any(axis=1).nonzero()[0].tolist() if wide else range(F.spec.n)
    block = (F.coords[support] if wide else F.coords[:, :k]).tolist()  # one read of the block
    terms = []
    for i, c in zip(reversed(support), reversed(block)):
        if not any(c):
            continue
        var = f"x^[{i}]" if i else "x"
        if any(c[k:]):  # a list's repr, spaces dropped, is the bracket form
            terms.append(f"{str(c).replace(' ', '')}*{var}")
        elif c[0] == 1 and not any(c[1:]):
            terms.append(var)
        else:
            terms.append(f"{','.join(map(str, c[:k]))}*{var}")
    return " + ".join(terms) if terms else "0"


def parse_linearized(text: str, spec: ExtFieldSpec) -> LinearizedPoly:
    """Parse "c*x^[i]" terms joined by "+" or "-" (the first may carry a minus);
    tolerates compact style "2x^[21]" and LaTeX braces. "0" is the zero map;
    blank text is refused. Only the coordinates written are reduced mod p."""
    base, n, width = spec.base, spec.n, spec.base.k * spec.n

    def term(m):
        _, raw, bracket, exp = m.groups()
        e = _read_int(exp) if exp else 0
        if not 0 <= e < n:
            raise BadInput(f"exponent {e} out of range for n = {n}")
        if bracket:  # all n*k coordinates of an element of F_{q^n}, as printed
            return e, _coords(bracket, base.p, width)
        # integers name F_q elements by base-p digits (3 over F_8 is y+1)
        return e, [1] if raw is None else _field_coeff(raw, base)

    sums = _sum_terms(_LIN_TERM, text.replace("{", "").replace("}", ""), "term", term)
    flat = np.zeros(n * width, dtype=np.int64)
    for e, row in sums.items():
        for j, v in enumerate(row, e * width):
            flat[j] = v % base.p
    return LinearizedPoly._of(spec, flat.reshape(n, width))
