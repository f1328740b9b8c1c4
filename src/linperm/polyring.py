"""Arithmetic in F_q[x] and in the quotient ring R_{q,n} = F_q[x]/(x^n - 1).

``Poly`` and ``RingElement`` hold the flat F_p coordinates of their
coefficients, as ``_polys`` and ``ExtElement.coords`` do, and each operation
is one ``_polys`` kernel. Includes extended Euclid, unit testing/inversion,
q-cyclotomic cosets, the trace-formula idempotents and the factorization
of x^n - 1 into minimal polynomials of powers of an explicit n-th root of
unity, each the gcd of x^n - 1 with 1 minus its idempotent. F_q scalars are
boxed only at the public boundary (``RingSpec.element``); both text parsers
read their terms through one scanner, ``_sum_terms``, and sum Python ints.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, zip_longest
from math import gcd, prod
from operator import mul

import numpy as np

from . import _polys
from .errors import (
    BadInput,
    BothZero,
    InternalError,
    NotAUnit,
)
from .fields import (
    ExtFieldSpec,
    FieldElement,
    FieldSpec,
    _digits,
    _require_text,
    _Residue,
    _Spec,
    _Value,
    _as_int,
    element_of_order,
    find_irreducible,
    integer_order_mod,
)


@dataclass(frozen=True)
class Poly(_Value):
    """Dense polynomial over F_q: ``coords`` holds the F_p coordinates of its
    coefficients, those of x^j at j*k, with no trailing zero slot."""

    spec: FieldSpec
    coords: tuple[int, ...]

    def __post_init__(self):
        FieldSpec._require_class(self.spec)
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
    Poly._require_class(a)
    a._check(b)
    if a.is_zero() and b.is_zero():
        raise BothZero("gcd(0, 0) is undefined")
    return Poly(a.spec, _polys.pgcd(a.spec, a.coords, b.coords))


def poly_egcd(a: Poly, b: Poly):
    """Extended gcd: (g, u, v) with u*a + v*b = g, g monic."""
    Poly._require_class(a)
    a._check(b)
    if a.is_zero() and b.is_zero():
        raise BothZero("gcd(0, 0) is undefined")
    g, u, v = _polys.pegcd(a.spec, a.coords, b.coords)
    return Poly(a.spec, g), Poly(a.spec, u), Poly(a.spec, v)


@dataclass(frozen=True, eq=False)
class RingSpec(_Spec):
    """The quotient ring R_{q,n} = F_q[x]/(x^n - 1); requires gcd(n, q) = 1.
    Equal by value, hashed once, compared by identity first (``fields._Spec``)."""

    base: FieldSpec
    n: int

    def __post_init__(self):
        FieldSpec._require_class(self.base)
        object.__setattr__(self, "n", _as_int(self.n))
        if self.n < 1:
            raise BadInput("n must be >= 1")
        if gcd(self.n, self.base.p) != 1:
            raise BadInput(
                f"gcd(n, q) must be 1; got n = {self.n}, q = {self.base.q}"
            )
        self._freeze(self.base, self.n)

    def __str__(self):
        return f"F_{self.base.q}[x]/(x^{self.n} - 1)"

    def element(self, coeffs) -> RingElement:
        """Ring element from coefficients (F_q scalars, or ints c naming c*1),
        folded mod x^n - 1; the sum refuses a scalar over another field."""
        base, n = self.base, self.n
        slots = [base.zero()] * n
        for i, c in enumerate(coeffs):
            if not isinstance(c, FieldElement):
                c = base.embed_int(c)
            slots[i % n] = slots[i % n] + c
        return RingElement(self, tuple(v for c in slots for v in c.coeffs))

    def from_poly(self, f: Poly) -> RingElement:
        Poly._require(self.base, f)
        return RingElement(self, _polys.pfold(self.base, f.coords, self.n))

    def zero(self) -> RingElement:
        return self.from_poly(Poly.zero(self.base))

    def one(self) -> RingElement:
        return self.from_poly(Poly.one(self.base))

    def x(self) -> RingElement:
        return self.from_poly(Poly.x(self.base))

    def modulus(self) -> Poly:
        """x^n - 1 as a polynomial over F_q, built once per ring."""
        return _xn_minus_1(self)


@lru_cache(maxsize=None)
def _xn_minus_1(spec: RingSpec) -> Poly:
    one = _polys.pone(spec.base)
    return Poly(spec.base, _polys.psub(spec.base, (0,) * len(one) * spec.n + one, one))


@dataclass(frozen=True)
class RingElement(_Residue):
    """Class of a polynomial of degree < n in R_{q,n}: ``coords`` holds the
    flat F_p coordinates of all n coefficients, as ``Poly.coords``."""

    spec: RingSpec
    coords: tuple[int, ...]

    def to_poly(self) -> Poly:
        return Poly(self.spec.base, self.coords)

    def __mul__(self, other):
        self._check(other)
        return RingElement(
            self.spec,
            _polys.pcyclic_mul(self.spec.base, self.coords, other.coords, self.spec.n),
        )

    def __str__(self):
        return format_poly(self.spec.base, self.coords)


def ring_mul(a: RingElement, b: RingElement) -> RingElement:
    RingElement._require_class(a)
    return a * b


def ring_is_unit(f: RingElement) -> bool:
    """True iff gcd(f, x^n - 1) = 1 over F_q."""
    RingElement._require_class(f)
    if f.is_zero():
        return False
    g = poly_gcd(f.to_poly(), f.spec.modulus())
    return g.degree == 0


def ring_inverse(f: RingElement) -> RingElement:
    """Inverse of a unit in R_{q,n}."""
    RingElement._require_class(f)
    if f.is_zero():
        raise NotAUnit("0 is not a unit")
    g, u, _ = poly_egcd(f.to_poly(), f.spec.modulus())
    if g.degree != 0:
        raise NotAUnit(f"gcd(f, x^n - 1) = {g} != 1")
    return f.spec.from_poly(u)


def shift_mul_x(f: RingElement, t: int) -> RingElement:
    """x^t * f mod x^n - 1: cyclic rotation of the coefficients by t."""
    RingElement._require_class(f)
    if (t := _as_int(t)) < 0:
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
    RingSpec._require_class(spec)
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


def splitting_field(spec: RingSpec) -> ExtFieldSpec:
    """Smallest field F_{q^m} containing the n-th roots of unity, m the order
    of q mod n; an extension of degree 1 when m = 1. Unlike ``extension_field``
    it does not need gcd(m, p) = 1. The spec is checked before the cache."""
    RingSpec._require_class(spec)
    return _splitting_field(spec)


@lru_cache(maxsize=None)
def _splitting_field(spec: RingSpec) -> ExtFieldSpec:
    m = integer_order_mod(spec.base.q, spec.n)
    return ExtFieldSpec(spec.base, m, find_irreducible(spec.base, m, 0))


def _trace_idempotents(spec: RingSpec, cosets, root_sums) -> np.ndarray:
    """The primitive idempotents by the trace formula e_s[j] = n^{-1}
    sum_{u in C_s} zeta^{-u j} (MacWilliams-Sloane, ch. 8), one row of flat
    coordinates per coset of ``cosets`` (in ``cyclotomic_cosets`` order),
    from ``root_sums[i]``, the F_q coordinates of sum_{u in C_i} zeta^u. As u
    runs over C_s, -u j runs over the coset C of -s j, hitting each member
    |C_s|/|C| times: one gather gives all t*n coefficients. e_s is 1 at the
    roots zeta^u, u in C_s, and 0 at the other n-th roots of unity."""
    n, p = spec.n, spec.base.p
    label = np.zeros(n, dtype=np.int64)  # the coset of each exponent
    for i, coset in enumerate(cosets):
        label[list(coset.members)] = i
    reps, sizes = np.array([(c.representative, len(c.members)) for c in cosets]).T
    C = label[-np.outer(reps, np.arange(n)) % n]  # C[s, j]: the coset of -s j
    coeffs = (sizes[:, None] // sizes[C] * pow(n, -1, p))[..., None] * np.asarray(root_sums)[C] % p
    return coeffs.reshape(len(cosets), -1)


def factor_xn_minus_1(spec: RingSpec) -> list[tuple[CyclotomicCoset, Poly]]:
    """Irreducible factors of x^n - 1 over F_q, one per cyclotomic coset, in
    a new list: the pairs of the ring's one build, ``_decomposition``, which
    ``primitive_idempotents`` reads too. The spec is checked before the cache."""
    RingSpec._require_class(spec)
    return [(coset, f) for coset, f, _ in _decomposition(spec)]


@lru_cache(maxsize=None)
def _decomposition(spec: RingSpec) -> tuple[tuple[CyclotomicCoset, Poly, RingElement], ...]:
    """Each q-cyclotomic coset C_s with its factor f_s of x^n - 1 and its
    primitive idempotent e_s, by coset representative.

    f_s is the minimal polynomial over F_q of zeta^s, zeta a fixed n-th root
    of unity in the splitting field F_{q^m} (Lidl-Niederreiter, Thm 2.47), so
    its roots are the zeta^u for u in C_s; zeta fixes which factor each coset
    labels. One ``_trace_idempotents`` gather, from the sums of the powers of
    zeta over each coset, gives every e_s. e_s is 1 at the roots of f_s and 0
    at the other n-th roots of unity, so f_s = gcd(x^n - 1, 1 - e_s). A root
    sum outside F_q, a factor whose degree is not its coset's size, or
    factors whose product is not x^n - 1 raise ``InternalError``.
    """
    work = _splitting_field(spec)
    base, n = spec.base, spec.n
    zeta = element_of_order(work, n)
    powers = list(accumulate([zeta] * (n - 1), mul, initial=work.one()))
    # zeta_pows[j, i] holds the F_q coordinates of slot i of zeta^j
    zeta_pows = np.array([r.coords for r in powers], dtype=np.int64).reshape(n, -1, base.k)
    cosets = cyclotomic_cosets(spec)
    sums = np.array([zeta_pows[list(c.members)].sum(axis=0) for c in cosets]) % base.p
    if sums[:, 1:].any():
        raise InternalError("polyring: a sum of the roots of a coset lies outside F_q")

    modulus, one, out = spec.modulus().coords, _polys.pone(base), []
    for coset, e in zip(cosets, _trace_idempotents(spec, cosets, sums[:, 0]).tolist()):
        f = _polys.pgcd(base, modulus, _polys.psub(base, one, e))
        if (d := _polys.pdeg(base, f)) != len(coset.members):
            raise InternalError(f"polyring: the factor of C_{coset.representative} has degree {d}")
        out.append((coset, Poly(base, f), RingElement(spec, tuple(e))))

    if prod((f for _, f, _ in out), start=Poly.one(base)) != spec.modulus():
        raise InternalError("polyring: product of coset factors is not x^n - 1")
    return tuple(out)


# the caches' counters stay reachable through the public names
splitting_field.__wrapped__ = _splitting_field
factor_xn_minus_1.__wrapped__ = _decomposition


# --- text format -------------------------------------------------------------

# A ring term: a sign, then "c*x^e" (the "*", "^e" and c optional) or a constant
# c, an integer or a comma vector; a minus before e is read so that its refusal
# names the term. The dense "[c0,c1,...]" is one term with no sign: it stands alone.
_RING_TERM = re.compile(
    r"([+-]?)(?:(?:([0-9]+(?:,[0-9]+)*)\*?)?x(?:\^(-?[0-9]+))?|([0-9]+(?:,[0-9]+)*))"
)
_DENSE = re.compile(r"()\[(-?[0-9]+(?:,-?[0-9]+)*)?\]")
_SPLIT_NUMBER = re.compile(r" (?<=[0-9] ) *[0-9]")  # digit, spaces, digit; led by a literal
_SIGN = re.compile(r"[+-](?![^\[]*\])")  # a sign outside brackets
_INT = re.compile(r"-?[0-9]+")
_MAX_DEGREE = 1 << 20  # the largest exponent parse_poly reads; no degree formed here nears it


def format_poly(field: FieldSpec, coords) -> str:
    """Canonical text form of the polynomial with flat coordinates ``coords``
    over ``field``: 'c*x^e' terms joined by '+', descending exponents."""
    FieldSpec._require_class(field)
    k = field.k
    one = _polys.pone(field)
    terms = []
    for e in range(len(coords) // k - 1, -1, -1):
        c = tuple(coords[e * k : e * k + k])
        if any(c):
            c_str, x_part = ",".join(map(str, c)), "x" if e == 1 else f"x^{e}"
            terms.append(c_str if e == 0 else x_part if c == one else f"{c_str}*{x_part}")
    return "+".join(terms) if terms else "0"


def _sum_terms(pattern: re.Pattern, text: str, what: str, term) -> dict[int, list[int]]:
    """Each slot's coordinates, summed in Python ints over the terms that
    tile ``text``: one ``finditer`` of ``pattern``, whose group 1 is the sign
    (absent or a minus on the first term only), and ``term(match)`` gives a
    term's slot and coordinates. Spaces may stand between tokens; "0" has no
    terms. A refusal names the text from where it goes wrong, or from the
    term before when no sign separates them, to the next sign outside brackets."""
    if split := _SPLIT_NUMBER.search(text):
        raise BadInput(f"spaces inside a number: {text[split.start() - 1 : split.end()]!r}")
    text = text.replace(" ", "")
    if not text:
        raise BadInput("empty polynomial string")
    if text == "0":
        return {}
    sums, end = {}, 0
    for m in pattern.finditer(text):
        sign = m.group(1)
        if m.start() != end or (sign == "+" if not end else not sign):
            break
        last, end = m, m.end()
        e, c = term(m)
        if sign == "-":
            c = [-v for v in c]
        row = sums.get(e)
        sums[e] = c if row is None else [a + b for a, b in zip_longest(row, c, fillvalue=0)]
    if end == len(text):  # a break leaves text unread
        return sums
    if end and text[end] not in "+-":
        end = last.start()
    stop = _SIGN.search(text, end + 1)
    raise BadInput(f"cannot parse {what} {text[end : stop.start() if stop else None]!r}")


def _read_int(text: str) -> int:
    """An integer in ASCII digits with an optional minus, the integer reader
    of the CLI. ``int`` alone also reads "1_0" or "３", and raises ValueError
    past CPython's digit limit."""
    if _INT.fullmatch(text) is None:
        raise BadInput(f"expects integers, got {text!r}")
    return _matched_int(text)


def _matched_int(text: str) -> int:
    """``int(text)`` for a ``text`` that a term pattern of either parser has
    matched as ``-?[0-9]+``, ASCII alone, refused as ``_read_int`` refuses
    it when it is too long."""
    try:
        return int(text)
    except ValueError:
        raise BadInput(f"integer of {len(text)} characters is too long") from None


def _coords(raw: str, p: int, count: int) -> list[int]:
    """The ``count`` coordinates over F_p that the comma list ``raw`` names."""
    parts = list(map(_matched_int, raw.strip("[]").split(",")))
    if ("-" in raw and min(parts) < 0) or max(parts) >= p:
        raise BadInput(f"coefficient {raw!r} has a coordinate outside [0, {p})")
    if len(parts) != count:
        raise BadInput(f"coefficient {raw!r} lists {len(parts)} coordinates, not {count}")
    return parts


def _field_coeff(raw: str, field: FieldSpec) -> list[int]:
    """The k coordinates of an F_q coefficient: a bare integer names the
    element with those base-p digits, a comma vector lists its k coordinates."""
    if "," in raw:
        return _coords(raw, field.p, field.k)
    v = _matched_int(raw)
    if v >= field.q:
        raise BadInput(f"{v} names no element of F_{field.q}")
    return [v] if field.k == 1 else list(_digits(v, field.p, field.k))


def _read_poly(text: str, spec: FieldSpec, n: int | None = None) -> Poly:
    """The polynomial that ``parse_poly`` reads from ``text``; with ``n``, each
    term's exponent is taken mod n as the terms are summed, so a term costs
    the same whatever its exponent (a dense row still runs on past x^(n-1));
    without, an exponent above ``_MAX_DEGREE`` is refused before the list."""
    _require_text(text)
    dense = (bare := text.strip(" ")).startswith("[") and bare.endswith("]")

    def term(m):
        if dense:  # integers naming the coefficients of x^0, x^1, ...
            ints = m.group(2).split(",") if m.group(2) else ()
            return 0, [v for c in ints for v in spec.from_int(_matched_int(c)).coeffs]
        _, raw, exp, const = m.groups()
        if const is not None:
            return 0, _field_coeff(const, spec)
        if exp and exp[0] == "-":
            raise BadInput(f"negative exponent in polynomial term {m.group().lstrip('+-')!r}")
        e = _matched_int(exp) if exp else 1
        if n is None and e > _MAX_DEGREE:
            raise BadInput(f"exponent {exp} is above {_MAX_DEGREE}, the largest parse_poly reads")
        return e if n is None else e % n, [1] if raw is None else _field_coeff(raw, spec)

    sums = _sum_terms(_DENSE if dense else _RING_TERM, text, "polynomial term", term)
    coords = [0] * (spec.k * max(sums, default=0) + spec.k)  # slot e at e*k; a dense row runs on
    for e, row in sums.items():
        coords[e * spec.k : e * spec.k + len(row)] = row
    return Poly(spec, tuple(v % spec.p for v in coords))


def parse_poly(text: str, spec: FieldSpec) -> Poly:
    """Parse the term format, terms joined by '+' or '-' with an optional
    leading minus (also accepts the dense '[c0,c1,...]' form)."""
    FieldSpec._require_class(spec)
    return _read_poly(text, spec)


def parse_ring_element(text: str, spec: RingSpec) -> RingElement:
    RingSpec._require_class(spec)
    return spec.from_poly(_read_poly(text, spec.base, spec.n))
