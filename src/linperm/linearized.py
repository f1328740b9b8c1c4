"""Linearized polynomials over F_{q^n} and their compositional structure.

A linearized polynomial F(x) = sum f_i x^{[i]} (with x^{[i]} = x^{q^i},
coefficients in F_{q^n}, kept in reduced form with exactly n slots) induces
an F_q-linear map on F_{q^n}. When all coefficients lie in F_q, F corresponds
to its conventional q-associate f(x) = sum f_i x^i in F_q[x]/(x^n - 1), and
composition of maps matches ring multiplication of associates. That bridge
turns permutation testing into a unit test in the ring (equivalently: f is
coprime to x^n - 1, equivalently no product with a primitive idempotent
vanishes) and compositional inversion into componentwise inversion.
"""

from __future__ import annotations

import itertools
import re
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

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
    _ext_reduction,
    _frobenius_power,
    frobenius,
)
from .idempotents import ComponentVector, IdempotentBasis, project, reconstruct
from .polyring import (
    RingElement,
    RingSpec,
    _parse_digits,
    _parse_ints,
    _signed_terms,
    poly_egcd,
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


@dataclass(frozen=True)
class LinearizedPoly:
    """Reduced-degree linearized polynomial: slot i holds the x^{[i]} coefficient."""

    spec: ExtFieldSpec = field(hash=False)
    coeffs: tuple[ExtElement, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.spec.n:
            raise BadInput(
                f"expected {self.spec.n} coefficients, got {len(self.coeffs)}"
            )
        for c in self.coeffs:
            if c.spec != self.spec:
                raise SpecMismatch("coefficient from a different field")

    @classmethod
    def monomial(cls, spec: ExtFieldSpec, c: ExtElement, i: int) -> "LinearizedPoly":
        if not 0 <= i < spec.n:
            raise BadInput(f"exponent {i} out of range")
        coeffs = [spec.zero()] * spec.n
        coeffs[i] = c
        return cls(spec, tuple(coeffs))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __add__(self, other):
        if self.spec != other.spec:
            raise SpecMismatch("operands from different fields")
        return LinearizedPoly(
            self.spec, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        if self.spec != other.spec:
            raise SpecMismatch("operands from different fields")
        return LinearizedPoly(
            self.spec, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self):
        return LinearizedPoly(self.spec, tuple(-c for c in self.coeffs))

    def __str__(self):
        return format_linearized(self)


def identity(spec: ExtFieldSpec) -> LinearizedPoly:
    """The identity map x, canonical coefficient vector (1, 0, ..., 0)."""
    return LinearizedPoly.monomial(spec, spec.one(), 0)


def has_base_coeffs(F: LinearizedPoly) -> bool:
    return all(c.in_base_field() for c in F.coeffs)


def _base_coeffs(F: LinearizedPoly) -> list[FieldElement]:
    if not has_base_coeffs(F):
        raise CoefficientsNotInBaseField(
            "operation requires coefficients in the base field"
        )
    return [c.base_value() for c in F.coeffs]


def conventional_associate(F: LinearizedPoly) -> RingElement:
    """f(x) = sum f_i x^i in F_q[x]/(x^n - 1); same coefficient vector."""
    ring = RingSpec(F.spec.base, F.spec.n)
    return ring.element(_base_coeffs(F))


def linearized_associate(f: RingElement, spec: ExtFieldSpec) -> LinearizedPoly:
    if f.spec.base != spec.base or f.spec.n != spec.n:
        raise SpecMismatch("ring and field spec disagree")
    k, pad = spec.base.k, (0,) * (spec.base.k * (spec.n - 1))
    coeffs = (ExtElement(spec, f.coords[j : j + k] + pad) for j in range(0, k * spec.n, k))
    return LinearizedPoly(spec, tuple(coeffs))


def evaluate(F: LinearizedPoly, a: ExtElement) -> ExtElement:
    if a.spec != F.spec:
        raise SpecMismatch("argument from a different field")
    out = F.spec.zero()
    for i, c in enumerate(F.coeffs):
        if not c.is_zero():
            out = out + c * frobenius(a, i)
    return out


def compose(F: LinearizedPoly, G: LinearizedPoly) -> LinearizedPoly:
    """Symbolic product F(G(x)); slot k collects f_i * g_j^{q^i} over i+j = k mod n."""
    if F.spec != G.spec:
        raise SpecMismatch("operands from different fields")
    spec = F.spec
    n = spec.n
    out = [spec.zero()] * n
    for i, fi in enumerate(F.coeffs):
        if fi.is_zero():
            continue
        for j, gj in enumerate(G.coeffs):
            if gj.is_zero():
                continue
            k = (i + j) % n
            out[k] = out[k] + fi * frobenius(gj, i)
    return LinearizedPoly(spec, tuple(out))


def is_permutation(F: LinearizedPoly, basis: IdempotentBasis) -> bool:
    """Idempotent criterion: F permutes F_{q^n} iff no product f*e_i vanishes."""
    f = conventional_associate(F)
    if f.spec != basis.spec:
        raise SpecMismatch("basis from a different ring")
    zero = basis.spec.zero()
    return all(ring_mul(f, c.idempotent) != zero for c in basis.components)


def is_permutation_gcd(F: LinearizedPoly) -> bool:
    """Unit criterion: gcd(f, x^n - 1) constant."""
    return ring_is_unit(conventional_associate(F))


def is_permutation_rank(F: LinearizedPoly) -> bool:
    """Rank test for arbitrary coefficients: the induced F_q-linear map on
    F_{q^n} must have full rank, k*n as an F_p-linear map (q = p^k).

    The map is sum_i Mul(c_i) Frob^i on flat coordinates. A coefficient c in
    F_q acts on every slot through the same k x k block, so its term costs no
    full matrix product.
    """
    spec = F.spec
    base = spec.base
    p, k, n = base.p, base.k, spec.n
    support = [(i, c) for i, c in enumerate(F.coeffs) if not c.is_zero()]
    if not support:
        return False
    # A term adds to each entry a sum of products of two reduced entries, k
    # of them for a coefficient in F_q and k*n otherwise. Over at most n
    # terms entries stay below n*k*p^2 when every coefficient lies in F_q,
    # and below n*k*n*p^2 in any case, far inside int64 (p < 2^16);
    # rank_mod reduces M once.
    M = np.zeros((k * n, k * n), dtype=np.int64)
    rows = M.reshape(n, k, k * n)
    for i, c in support:
        Fi = _frobenius_power(spec, i)
        if c.in_base_field():
            # Mul(c) is block diagonal with c's k x k block: slot j of the
            # image is the block times slot j of Frob^i
            rows += _polys._block(base, c.coords[:k]) @ Fi.reshape(n, k, k * n)
        else:
            M += _polys.pmul_matrix(base, _ext_reduction(spec), c.coords) @ Fi
    return _linalg.rank_mod(M, p) == k * n


def coefficient_sum_reject(F: LinearizedPoly) -> bool:
    """True (reject) when the coefficients sum to zero in F_q; such F never permutes."""
    coeffs = _base_coeffs(F)
    total = F.spec.base.zero()
    for c in coeffs:
        total = total + c
    return total.is_zero()


def compositional_inverse(
    F: LinearizedPoly, basis: IdempotentBasis
) -> LinearizedPoly:
    """Inverse through the component decomposition.

    Project f onto the simple components, invert each entry modulo its factor
    and reconstruct; the result is cross-checked against the direct ring
    inverse before converting back to linearized form.
    """
    if not is_permutation(F, basis):
        raise NotAPermutation("polynomial is not a linear permutation")
    f = conventional_associate(F)
    v = project(f, basis)
    spec = basis.spec
    inv_entries = []
    for entry, comp in zip(v.entries, basis.components):
        # g is monic, so g = 1 and u is the entry's inverse mod f_i
        g, u, _ = poly_egcd(entry.to_poly() % comp.factor, comp.factor)
        if g.degree != 0:
            raise InternalError("component entry not invertible mod its factor")
        inv_entries.append(spec.from_poly(u % comp.factor))
    f_inv = reconstruct(ComponentVector(spec, tuple(inv_entries)), basis)
    if f_inv != ring_inverse(f):
        raise InternalError("component inverse disagrees with ring inverse")
    return linearized_associate(f_inv, F.spec)


def is_involution(F: LinearizedPoly) -> bool:
    """Whether F composed with itself is the identity map."""
    if has_base_coeffs(F):
        f = conventional_associate(F)
        return ring_mul(f, f) == f.spec.one()
    return compose(F, F) == identity(F.spec)


@lru_cache(maxsize=None)
def _ext_for_ring(spec: RingSpec) -> ExtFieldSpec:
    from .fields import find_irreducible

    return ExtFieldSpec(spec.base, spec.n, find_irreducible(spec.base, spec.n, 0))


def sign_vector_involutions(
    basis: IdempotentBasis, spec: ExtFieldSpec | None = None
) -> list[LinearizedPoly]:
    """All involutions of the form sum of +-e_i (associates of sign vectors).

    In odd characteristic the 2^t sign assignments give 2^t distinct
    involutions and exhaust the square roots of unity in the ring. In
    characteristic 2 the signs coincide and the construction collapses to
    the identity alone.
    """
    ring = basis.spec
    if spec is None:
        spec = _ext_for_ring(ring)
    if spec.base != ring.base or spec.n != ring.n:
        raise SpecMismatch("field spec does not match the basis ring")
    if ring.base.p == 2:
        warnings.warn(
            "characteristic 2: +1 = -1, sign vectors all give the identity",
            stacklevel=2,
        )
        return [identity(spec)]
    out = []
    for signs in itertools.product((1, -1), repeat=basis.t):
        f = ring.zero()
        for s, comp in zip(signs, basis.components):
            f = f + comp.idempotent if s == 1 else f - comp.idempotent
        if ring_mul(f, f) != ring.one():
            raise InternalError("sign vector did not square to 1")
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


def _pm_condition_values(
    coeffs: list[FieldElement], p: int, m: int
) -> list[FieldElement]:
    """The m+1 left-hand sides of the p^m permutation conditions.

    Value 0 is the plain coefficient sum; value i (1 <= i <= m) is the
    constant term of f * e_i up to the stated weights: the sum over
    j < p^{m-i+1} of w_j f_{p^m - j p^{i-1}} with w_j = 1/p^{m-i} - 1/p^{m-i+1}
    when p | j and w_j = -1/p^{m-i+1} otherwise, subscripts mod p^m.
    """
    base = coeffs[0].spec
    n = p**m
    values = [sum(coeffs[1:], coeffs[0])]
    for i in range(1, m + 1):
        inv_big = base.embed_int(pow(p, m - i + 1, base.p)).inverse()
        inv_small = base.embed_int(pow(p, m - i, base.p)).inverse()
        w_div = inv_small - inv_big
        w_nondiv = -inv_big
        acc = base.zero()
        step = p ** (i - 1)
        for j in range(p ** (m - i + 1)):
            idx = (n - j * step) % n
            w = w_div if j % p == 0 else w_nondiv
            acc = acc + w * coeffs[idx]
        values.append(acc)
    return values


def pm_sufficient_conditions(F: LinearizedPoly, p: int, m: int) -> bool:
    """Sufficient permutation test for n = p^m via constant terms of f*e_i.

    True guarantees F is a permutation; False is inconclusive (the conditions
    only force the constant term of each product to be nonzero).
    """
    from .idempotents import cor4_condition

    if F.spec.n != p**m:
        raise BadInput(f"n = {F.spec.n} is not {p}^{m}")
    coeffs = _base_coeffs(F)
    if not cor4_condition(p, m, F.spec.base.q):
        raise ConditionNotMet(
            "closed-form idempotents are not primitive for these parameters"
        )
    return all(not v.is_zero() for v in _pm_condition_values(coeffs, p, m))


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

    Mirrors the p^m permutation conditions with shifted right-hand sides:
    for every lambda in A, the coefficient sum must avoid -lambda and each
    weighted sum must avoid -(1/p^{m-i} - 1/p^{m-i+1}) lambda. True
    guarantees A-completeness; False is inconclusive.
    """
    from .idempotents import cor4_condition

    if F.spec.n != p**m:
        raise BadInput(f"n = {F.spec.n} is not {p}^{m}")
    coeffs = _base_coeffs(F)
    base = F.spec.base
    lams = []
    for lam in A:
        e = _as_ext(F.spec, lam)
        if not e.in_base_field():
            raise BadInput("the sufficient conditions need A inside F_q")
        lams.append(e.base_value())
    if not any(lam.is_zero() for lam in lams):
        raise ZeroNotInA("A must contain 0")
    if not cor4_condition(p, m, base.q):
        raise ConditionNotMet(
            "closed-form idempotents are not primitive for these parameters"
        )
    values = _pm_condition_values(coeffs, p, m)
    for lam in lams:
        if values[0] == -lam:
            return False
        for i in range(1, m + 1):
            inv_big = base.embed_int(pow(p, m - i + 1, base.p)).inverse()
            inv_small = base.embed_int(pow(p, m - i, base.p)).inverse()
            if values[i] == -(inv_small - inv_big) * lam:
                return False
    return True


# --- text format -------------------------------------------------------------

_LIN_TERM_RE = re.compile(
    r"^(?:(?P<coeff>[^*x]+)\*?)?x(?:\^\[(?P<exp>\d+)\])?$"
)


def format_linearized(F: LinearizedPoly) -> str:
    """Terms "c*x^[i]" joined by " + ", descending i; "c*x" for i = 0.

    Unit coefficients are dropped ("x^[6]", "x"); the zero map prints "0".
    Coefficients outside F_q render in the bracketed coordinate form.
    """
    terms = []
    for i in range(F.spec.n - 1, -1, -1):
        c = F.coeffs[i]
        if c.is_zero():
            continue
        var = f"x^[{i}]" if i else "x"
        if c == F.spec.one():
            terms.append(var)
        elif c.in_base_field():
            terms.append(f"{c.base_value()}*{var}")
        else:
            terms.append(f"{c}*{var}")
    return " + ".join(terms) if terms else "0"


def parse_linearized(text: str, spec: ExtFieldSpec) -> LinearizedPoly:
    """Parse "c*x^[i]" terms joined by "+" or "-" (the first may carry a minus);
    tolerates compact style "2x^[21]" and LaTeX braces."""
    cleaned = text.replace("{", "").replace("}", "").replace(" ", "")
    if cleaned in ("0", ""):
        return LinearizedPoly(spec, tuple([spec.zero()] * spec.n))
    coeffs = [spec.zero()] * spec.n
    for sign, term in _signed_terms(cleaned):
        m = _LIN_TERM_RE.match(term)
        if m is None:
            raise BadInput(f"cannot parse term {term!r}")
        exp = int(m.group("exp")) if m.group("exp") is not None else 0
        if not 0 <= exp < spec.n:
            raise BadInput(f"exponent {exp} out of range for n = {spec.n}")
        raw = m.group("coeff")
        if raw is None:
            c = spec.one()
        else:
            c = _parse_ext_coeff(raw, spec)
        coeffs[exp] = coeffs[exp] + (c if sign > 0 else -c)
    return LinearizedPoly(spec, tuple(coeffs))


def _parse_ext_coeff(raw: str, spec: ExtFieldSpec) -> ExtElement:
    base = spec.base
    k = base.k
    if raw.startswith("[") and raw.endswith("]"):
        # all n*k coordinates of an element of F_{q^n}, as format_linearized prints it
        parts = _parse_digits(raw, raw[1:-1], base.p)
        if len(parts) != spec.n * k:
            raise BadInput(
                f"coefficient {raw!r} needs {spec.n * k} integers, got {len(parts)}"
            )
        return ExtElement(spec, tuple(parts))
    if "," in raw:
        parts = _parse_digits(raw, raw, base.p)
        if len(parts) == k:
            return spec.embed(base.element(parts))
        if len(parts) == spec.n:
            raise BadInput("full extension coefficients need bracket syntax")
        raise BadInput(f"coefficient {raw!r} has wrong length")
    (v,) = _parse_ints(raw, raw)
    # integers name F_q elements by base-p digits (3 over F_8 is y+1)
    return spec.embed(base.from_int(v))
