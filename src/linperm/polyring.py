"""Arithmetic in F_q[x] and in the quotient ring R_{q,n} = F_q[x]/(x^n - 1).

``Poly`` and ``RingElement`` hold the flat F_p coordinates of their
coefficients, as ``_polys`` and ``ExtElement.coords`` do, and each operation
is one ``_polys`` kernel. Includes extended Euclid, unit testing/inversion,
q-cyclotomic cosets and the factorization of x^n - 1 through an explicit
n-th root of unity. F_q scalars are boxed only at the public boundary
(``RingSpec.element``, the parser).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from . import _polys
from .errors import (
    BadInput,
    BothZero,
    InternalError,
    NotAUnit,
    SpecMismatch,
)
from .fields import (
    ExtFieldSpec,
    FieldElement,
    FieldSpec,
    _ext_reduction,
    _flat_coords,
    element_of_order,
    find_irreducible,
    integer_order_mod,
)


@dataclass(frozen=True)
class Poly:
    """Dense polynomial over F_q: ``coords`` holds the F_p coordinates of its
    coefficients, those of x^j at j*k, with no trailing zero slot."""

    spec: FieldSpec
    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", _polys.ptrim(self.spec, self.coords))

    @classmethod
    def zero(cls, spec: FieldSpec) -> Poly:
        return cls(spec, ())

    @classmethod
    def one(cls, spec: FieldSpec) -> Poly:
        return cls(spec, _polys.pone(spec))

    @classmethod
    def x(cls, spec: FieldSpec) -> Poly:
        return cls(spec, (0,) * spec.k + _polys.pone(spec))

    @property
    def degree(self) -> int:
        return _polys.pdeg(self.spec, self.coords)

    def is_zero(self) -> bool:
        return not self.coords

    def _check(self, other):
        if not isinstance(other, Poly) or other.spec != self.spec:
            raise SpecMismatch("polynomials over different fields")

    def __add__(self, other):
        self._check(other)
        return Poly(self.spec, _polys.padd(self.spec, self.coords, other.coords))

    def __sub__(self, other):
        self._check(other)
        return Poly(self.spec, _polys.psub(self.spec, self.coords, other.coords))

    def __neg__(self):
        return Poly(self.spec, _polys.pneg(self.spec, self.coords))

    def __mul__(self, other):
        self._check(other)
        return Poly(self.spec, _polys.pmul(self.spec, self.coords, other.coords))

    def __divmod__(self, other):
        self._check(other)
        q, r = _polys.pdivmod(self.spec, self.coords, other.coords)
        return Poly(self.spec, q), Poly(self.spec, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __str__(self):
        return format_poly(self.spec, self.coords)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    if a.is_zero() and b.is_zero():
        raise BothZero("gcd(0, 0) is undefined")
    a._check(b)
    return Poly(a.spec, _polys.pgcd(a.spec, a.coords, b.coords))


def poly_egcd(a: Poly, b: Poly):
    """Extended gcd: (g, u, v) with u*a + v*b = g, g monic."""
    if a.is_zero() and b.is_zero():
        raise BothZero("gcd(0, 0) is undefined")
    a._check(b)
    g, u, v = _polys.pegcd(a.spec, a.coords, b.coords)
    return Poly(a.spec, g), Poly(a.spec, u), Poly(a.spec, v)


@dataclass(frozen=True)
class RingSpec:
    """The quotient ring R_{q,n} = F_q[x]/(x^n - 1); requires gcd(n, q) = 1."""

    base: FieldSpec
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise BadInput("n must be >= 1")
        if gcd(self.n, self.base.p) != 1:
            raise BadInput(
                f"gcd(n, q) must be 1; got n = {self.n}, q = {self.base.q}"
            )

    def element(self, coeffs) -> RingElement:
        """Ring element from coefficients (F_q scalars, or ints c naming c*1),
        folded mod x^n - 1."""
        slots = [self.base.zero()] * self.n
        for i, c in enumerate(coeffs):
            if not isinstance(c, FieldElement):
                c = self.base.embed_int(c)
            elif c.spec != self.base:
                raise SpecMismatch("coefficient from a different field")
            slots[i % self.n] = slots[i % self.n] + c
        return RingElement(self, _flat_coords(slots))

    def from_poly(self, f: Poly) -> RingElement:
        if f.spec != self.base:
            raise SpecMismatch("polynomial over a different field")
        return RingElement(self, _polys.pfold(self.base, f.coords, self.n))

    def zero(self) -> RingElement:
        return self.from_poly(Poly.zero(self.base))

    def one(self) -> RingElement:
        return self.from_poly(Poly.one(self.base))

    def x(self) -> RingElement:
        return self.from_poly(Poly.x(self.base))

    def modulus(self) -> Poly:
        """x^n - 1 as a polynomial over F_q."""
        one = _polys.pone(self.base)
        return Poly(self.base, _polys.psub(self.base, (0,) * len(one) * self.n + one, one))


@dataclass(frozen=True)
class RingElement:
    """Class of a polynomial of degree < n in R_{q,n}: ``coords`` holds the
    flat F_p coordinates of all n coefficients, as ``Poly.coords``."""

    spec: RingSpec
    coords: tuple[int, ...]

    def _check(self, other):
        if not isinstance(other, RingElement) or other.spec != self.spec:
            raise SpecMismatch("elements of different rings")

    def is_zero(self) -> bool:
        return not any(self.coords)

    def to_poly(self) -> Poly:
        return Poly(self.spec.base, self.coords)

    def __add__(self, other):
        self._check(other)
        p = self.spec.base.p
        return RingElement(
            self.spec, tuple((a + b) % p for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other):
        self._check(other)
        p = self.spec.base.p
        return RingElement(
            self.spec, tuple((a - b) % p for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self):
        return RingElement(self.spec, _polys.pneg(self.spec.base, self.coords))

    def __mul__(self, other):
        self._check(other)
        return RingElement(
            self.spec,
            _polys.pcyclic_mul(self.spec.base, self.coords, other.coords, self.spec.n),
        )

    def __str__(self):
        return format_poly(self.spec.base, self.coords)


def ring_mul(a: RingElement, b: RingElement) -> RingElement:
    return a * b


def ring_is_unit(f: RingElement) -> bool:
    """True iff gcd(f, x^n - 1) = 1 over F_q."""
    if f.is_zero():
        return False
    g = poly_gcd(f.to_poly(), f.spec.modulus())
    return g.degree == 0


def ring_inverse(f: RingElement) -> RingElement:
    """Inverse of a unit in R_{q,n}."""
    if f.is_zero():
        raise NotAUnit("0 is not a unit")
    g, u, _ = poly_egcd(f.to_poly(), f.spec.modulus())
    if g.degree != 0:
        raise NotAUnit(f"gcd(f, x^n - 1) = {g} != 1")
    return f.spec.from_poly(u)


def shift_mul_x(f: RingElement, t: int) -> RingElement:
    """x^t * f mod x^n - 1: cyclic rotation of the coefficients by t."""
    if t < 0:
        raise BadInput("shift exponent must be >= 0")
    cut = (t % f.spec.n) * f.spec.base.k
    return RingElement(f.spec, f.coords[-cut:] + f.coords[:-cut] if cut else f.coords)


# --- cyclotomic cosets and the factorization of x^n - 1 ----------------------


@dataclass(frozen=True)
class CyclotomicCoset:
    """Orbit of an exponent under multiplication by q mod n."""

    representative: int
    members: tuple[int, ...]


def cyclotomic_cosets(spec: RingSpec) -> list[CyclotomicCoset]:
    """Partition of {0, ..., n-1} into q-cyclotomic cosets, sorted by representative."""
    q, n = spec.base.q, spec.n
    seen = [False] * n
    cosets = []
    for s in range(n):
        if seen[s]:
            continue
        members = []
        j = s
        while not seen[j]:
            seen[j] = True
            members.append(j)
            j = (j * q) % n
        cosets.append(CyclotomicCoset(min(members), tuple(sorted(members))))
    cosets.sort(key=lambda c: c.representative)
    return cosets


class _SplittingFieldSpec(ExtFieldSpec):
    """F_{q^m} used only to host the n-th roots of unity; m need not be coprime to p."""

    _require_coprime = False


@lru_cache(maxsize=None)
def splitting_field(spec: RingSpec) -> ExtFieldSpec | FieldSpec:
    """Smallest field F_{q^m} containing the n-th roots of unity (F_q itself if m = 1)."""
    m = integer_order_mod(spec.base.q, spec.n)
    if m == 1:
        return spec.base
    return _SplittingFieldSpec(spec.base, m, find_irreducible(spec.base, m, seed=0))


def _linear_factor_rows(work, roots, p: int) -> np.ndarray:
    """Monic product of (x - r) over roots given by their coordinates in the
    splitting field ``work``: row i of the int array is the x^i coefficient.
    When work = F_q every coset is one root, so no product is taken."""
    first, *rest = roots
    prod = np.array([np.negative(first) % p, np.eye(len(first), dtype=np.int64)[0]])
    for r in rest:
        red = _ext_reduction(work)
        nxt = np.zeros((len(prod) + 1, prod.shape[1]), dtype=np.int64)
        nxt[1:] = prod
        nxt[:-1] -= [_polys.pmulmod(work.base, red, r, row) for row in prod]
        prod = nxt % p
    return prod


@lru_cache(maxsize=None)
def factor_xn_minus_1(spec: RingSpec) -> list[tuple[CyclotomicCoset, Poly]]:
    """Irreducible factors of x^n - 1 over F_q, one per cyclotomic coset.

    The factor attached to coset C_s is the product of (x - zeta^j) over
    j in C_s, computed in the splitting field F_{q^m} with zeta a fixed
    n-th root of unity, then projected back into F_q.
    """
    base, n = spec.base, spec.n
    work = splitting_field(spec)
    zeta = element_of_order(work, n)
    powers = [work.one()]
    for _ in range(n - 1):
        powers.append(powers[-1] * zeta)
    flat = [r.coeffs if work is base else r.coords for r in powers]

    out = []
    for coset in cyclotomic_cosets(spec):
        rows = _linear_factor_rows(work, [flat[j] for j in coset.members], base.p)
        if rows[:, base.k :].any():
            raise InternalError("factor coefficient escaped F_q; arithmetic is broken")
        out.append((coset, Poly(base, tuple(rows[:, : base.k].ravel().tolist()))))

    product = Poly.one(base)
    for _, f in out:
        product = product * f
    if product != spec.modulus():
        raise InternalError("product of coset factors is not x^n - 1")
    return out


# --- text format -------------------------------------------------------------

_TERM_RE = re.compile(
    r"^(?:(?P<coeff>[\d,]+)\*?)?(?P<x>x)(?:\^(?P<exp>\d+))?$|^(?P<const>[\d,]+)$"
)


def format_poly(field: FieldSpec, coords) -> str:
    """Canonical text form of the polynomial with flat coordinates ``coords``
    over ``field``: 'c*x^e' terms joined by '+', descending exponents."""
    k = field.k
    one = _polys.pone(field)
    terms = []
    for e in range(len(coords) // k - 1, -1, -1):
        c = tuple(coords[e * k : e * k + k])
        if not any(c):
            continue
        c_str = ",".join(map(str, c))
        if e == 0:
            terms.append(c_str)
        else:
            x_part = "x" if e == 1 else f"x^{e}"
            terms.append(x_part if c == one else f"{c_str}*{x_part}")
    return "+".join(terms) if terms else "0"


def _parse_ints(raw: str, text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise BadInput(f"cannot parse coefficient {raw!r}") from None


def _parse_digits(raw: str, text: str, p: int) -> list[int]:
    """Comma-separated coordinates over F_p, each in [0, p)."""
    parts = _parse_ints(raw, text)
    if not all(0 <= v < p for v in parts):
        raise BadInput(f"coefficient {raw!r} has a coordinate outside [0, {p})")
    return parts


def _signed_terms(text: str) -> list[tuple[int, str]]:
    """(sign, term) pairs of a sum "t1+t2-t3", which may open with a minus."""
    first = -1 if text.startswith("-") else 1
    tokens = re.split(r"([+-])", text[1:] if first < 0 else text)
    signs = [first] + [1 if s == "+" else -1 for s in tokens[1::2]]
    return list(zip(signs, tokens[::2]))


def _parse_field_coeff(text: str, spec: FieldSpec) -> FieldElement:
    """A bare integer names the element with those base-p digits; a comma
    vector lists its k coordinates."""
    if "," in text:
        return spec.element(_parse_digits(text, text, spec.p))
    (v,) = _parse_ints(text, text)
    return spec.from_int(v)


def parse_poly(text: str, spec: FieldSpec) -> Poly:
    """Parse the term format, terms joined by '+' or '-' with an optional
    leading minus (also accepts the dense '[c0,c1,...]' form)."""
    text = text.replace(" ", "")
    if not text:
        raise BadInput("empty polynomial string")
    if text == "0":
        return Poly.zero(spec)
    if text.startswith("[") and text.endswith("]"):
        ints = _parse_ints(text, text[1:-1]) if text != "[]" else []
        return Poly(spec, _flat_coords(spec.from_int(c) for c in ints))
    acc: dict[int, FieldElement] = {}
    for sign, term in _signed_terms(text):
        m = _TERM_RE.match(term)
        if not m:
            raise BadInput(f"cannot parse polynomial term {term!r}")
        if m.group("const") is not None:
            e, c = 0, _parse_field_coeff(m.group("const"), spec)
        else:
            e = int(m.group("exp")) if m.group("exp") else 1
            raw = m.group("coeff")
            c = spec.one() if raw is None else _parse_field_coeff(raw, spec)
        acc[e] = acc.get(e, spec.zero()) + (c if sign > 0 else -c)
    return Poly(spec, _flat_coords(acc.get(e, spec.zero()) for e in range(max(acc) + 1)))


def parse_ring_element(text: str, spec: RingSpec) -> RingElement:
    return spec.from_poly(parse_poly(text, spec.base))
