"""Exact arithmetic in F_p, F_q = F_p[y]/(m(y)) and F_{q^n} = F_q[z]/(g(z)).

An F_q scalar is a ``FieldElement``; an element of F_{q^n} is an
``ExtElement``, one flat tuple of k*n ints mod p in the layout of ``_linalg``,
which the F_p kernels of ``_polys`` read directly.

This module owns the package's one argument rule (``_Checked``): a spec, an
element, a polynomial or a basis must be of the class expected, over the spec
expected where it has one (specs compared by identity first), or the call
raises ``SpecMismatch`` (a bad alpha of ``shifts`` alone raises ``BadInput``).
Text must be a ``str`` (``_require_text``) and an integer an int
(``_as_int``), or the call raises ``BadInput``. Specs (``_Spec``) hash once;
the element classes, these two, ``Poly``, ``RingElement``, ``LinearizedPoly``,
``IdempotentBasis`` and ``ComponentVector``, check their operands
(``_Value``); ``ExtElement`` and ``RingElement`` share their sums
(``_Residue``).

All values are immutable; operations are pure functions, so everything in
this module is safe to share across threads.
"""

from __future__ import annotations

import itertools
import operator
import random
import weakref
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd

import numpy as np

from . import _linalg, _polys
from .errors import (
    BadInput,
    InternalError,
    NotCoprime,
    SpecMismatch,
    ZeroInverse,
    ZeroOrder,
)

_MAX_PRIME = 1 << 16

# Fixed moduli for base fields the literature writes without picking one.
CANONICAL_BASE_MODULI = {
    (2, 3): (1, 1, 0, 1),  # y^3 + y + 1
}

# The (field, modulus) pairs ``find_irreducible`` has proved irreducible: a
# spec built on one of them does not test it again.
_proved: set = set()


def _digits(v: int, p: int, count: int) -> tuple[int, ...]:
    """The lowest ``count`` base-p digits of v, lowest first; elementwise
    for an int array v."""
    return tuple(v // p**i % p for i in range(count))


def _check_degree(n: int) -> None:
    if n < 1:
        raise BadInput("extension degree n must be >= 1")


# The largest degree over F_p of a field that is built, base or extension:
# four times that of the largest the tests build, F_{2^1023}. A larger one
# would start a modulus search whose cost grows with its degree.
_MAX_FIELD_DEGREE = 1 << 12


def _check_field_degree(p: int, degree: int) -> None:
    """Refuse a field of this degree over F_p above ``_MAX_FIELD_DEGREE``."""
    if degree > _MAX_FIELD_DEGREE:
        raise BadInput(f"a field of degree {degree} over F_{p} is above the cap of 2^12")


def _is_prime(p: int) -> bool:
    return _polys._prime_factors(p) == [p]


def _require_text(text) -> None:
    if text.__class__ is not str:
        raise BadInput(f"expected a str, got {type(text).__name__}")


def _as_int(v) -> int:
    """v as an int, or ``BadInput`` for a value that is no integer."""
    try:
        return operator.index(v)
    except TypeError:
        raise BadInput(f"expected an int, got {type(v).__name__}") from None


class _Checked:
    """The class half of the argument rule, shared by specs and values."""

    @classmethod
    def _require_class(cls, value):
        if value.__class__ is not cls:
            article = "an" if cls.__name__[0] in "AEIOU" else "a"
            raise SpecMismatch(f"expected {article} {cls.__name__}, got {type(value).__name__}")


class _Spec(_Checked):
    """The value rule of the three specs, which every cached kernel lookup
    hashes: equal by value, hashed once at construction, compared by identity
    first. ``_key`` is the fields' tuple as built, so equality and the hash
    are a dataclass's; a copy or pickle is rebuilt by the constructor, since
    ``hash(None)``, and with it a cached hash, can differ in another process.
    """

    def _freeze(self, *key):
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return self.__class__, self._key


class _Field(_Spec):
    """What ``FieldSpec`` and ``ExtFieldSpec`` share: the constants and one
    modulus rule."""

    def _set_modulus(self, name: str, over: FieldSpec, degree: int):
        """Stores the modulus in field ``name``, the flat coordinates of its
        coefficients over ``over``, mod p: it must be monic of ``degree``,
        and irreducible unless ``find_irreducible`` proved it."""
        mod = getattr(self, name)
        mod = () if mod is None else tuple(c % over.p for c in mod)
        if len(mod) != over.k * (degree + 1) or mod[-over.k :] != _polys.pone(over):
            raise BadInput(f"{name} must be monic of degree {degree}")
        if (over, mod) not in _proved and not _polys.pis_irreducible(over, mod):
            raise BadInput(f"{name} is reducible over F_{over.q}")
        object.__setattr__(self, name, mod)

    def zero(self):
        return self.element(())

    def one(self):
        return self.element((1,))

    def embed_int(self, c: int):
        """Image of the integer c under Z -> the field (c times the identity)."""
        return self.element((_as_int(c),))


@dataclass(frozen=True, eq=False)
class FieldSpec(_Field):
    """Description of F_q with q = p^k; elements are residues mod ``base_modulus``.
    Equal by value, hashed once, compared by identity first (``_Spec``)."""

    p: int
    k: int = 1
    base_modulus: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "p", _as_int(self.p))
        object.__setattr__(self, "k", _as_int(self.k))
        if self.p >= _MAX_PRIME or not _is_prime(self.p):
            raise BadInput(f"p = {self.p} must be a prime below 2^16")
        if self.k < 1:
            raise BadInput("extension degree k must be >= 1")
        if self.k == 1 and self.base_modulus is not None:
            raise BadInput("base_modulus must be absent when k = 1")
        if self.k > 1:
            self._set_modulus("base_modulus", FieldSpec(self.p), self.k)
        self._freeze(self.p, self.k, self.base_modulus)

    def __str__(self):
        return f"F_{self.q}"

    @property
    def q(self) -> int:
        return self.p**self.k

    @property
    def order(self) -> int:
        return self.q

    def element(self, coeffs) -> FieldElement:
        if len(coeffs) > self.k:
            raise BadInput("too many coefficients for this field")
        if self.k == 1:
            return _interned(self)[coeffs[0] % self.p if coeffs else 0]
        coeffs = tuple(c % self.p for c in coeffs)
        return FieldElement(self, coeffs + (0,) * (self.k - len(coeffs)))

    def from_int(self, v: int) -> FieldElement:
        """Element with base-p digits of v as coordinates (0 <= v < q)."""
        if not 0 <= (v := _as_int(v)) < self.q:
            raise BadInput(f"{v} names no element of F_{self.q}")
        return self.element(_digits(v, self.p, self.k))

    def elements(self):
        for v in range(self.q):
            yield self.from_int(v)


class _Value(_Checked):
    """The value rule: an operand of an operation, or a value a conversion
    takes, must be of the expected class over the expected spec, compared by
    identity first, or the call raises ``SpecMismatch``."""

    @classmethod
    def _require(cls, spec, value):
        if value.__class__ is not cls or (value.spec is not spec and value.spec != spec):
            cls._require_class(value)
            name, got = cls.__name__, str(value.spec)
            other = "another " if got == str(spec) else ""
            raise SpecMismatch(f"expected {name} over {spec}, got {name} over {other}{got}")

    def _check(self, other):
        self._require(self.spec, other)


class _Residue(_Value):
    """Sums, differences and negation on ``coords`` mod ``spec.base.p``."""

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __add__(self, other):
        self._check(other)
        p = self.spec.base.p
        return type(self)(self.spec, tuple((a + b) % p for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        p = self.spec.base.p
        return type(self)(self.spec, tuple((a - b) % p for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        p = self.spec.base.p
        return type(self)(self.spec, tuple(-a % p for a in self.coords))


@dataclass(frozen=True)
class FieldElement(_Value):
    """Element of F_q as a length-k little-endian coordinate vector mod p."""

    spec: FieldSpec
    coeffs: tuple[int, ...]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other):
        self._check(other)
        spec = self.spec
        p = spec.p
        if spec.k == 1:
            return _interned(spec)[(self.coeffs[0] + other.coeffs[0]) % p]
        return FieldElement(spec, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        p = self.spec.p
        return FieldElement(self.spec, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        p = self.spec.p
        return FieldElement(self.spec, tuple(-c % p for c in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        spec = self.spec
        out = _polys._block(spec, self.coeffs) @ other.coeffs % spec.p
        return FieldElement(spec, tuple(out.tolist()))

    def inverse(self) -> FieldElement:
        if self.is_zero():
            raise ZeroInverse("0 has no multiplicative inverse")
        return FieldElement(self.spec, _polys._inverse(self.spec, self.coeffs))

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return FieldElement(self.spec, _polys._power(self.spec, self.coeffs, e))

    def __str__(self):
        return ",".join(str(c) for c in self.coeffs)


@lru_cache(maxsize=None)
def _interned(spec: FieldSpec) -> tuple:
    """The p elements of a prime field, shared by ``element`` and ``__add__``
    for the boxed fold behind ``conventional_associate``."""
    return tuple(FieldElement(spec, (v,)) for v in range(spec.p))


@dataclass(frozen=True, eq=False)
class ExtFieldSpec(_Field):
    """Description of F_{q^n} = F_q[z]/(g(z)) over a base FieldSpec.

    ``ext_modulus`` is g by the flat coordinates of its n + 1 coefficients,
    the k of z^j at j*k: the layout of ``FieldSpec.base_modulus`` (k = 1) and
    of the ``_polys`` kernels. As for ``FieldSpec``, its modulus keeps the
    rule of ``_Field`` and the spec the value rule of ``_Spec``.
    """

    base: FieldSpec
    n: int
    ext_modulus: tuple[int, ...]

    def __post_init__(self):
        FieldSpec._require_class(self.base)
        object.__setattr__(self, "n", _as_int(self.n))
        _check_degree(self.n)
        self._set_modulus("ext_modulus", self.base, self.n)
        self._freeze(self.base, self.n, self.ext_modulus)

    def __str__(self):
        return f"F_{{{self.q}^{self.n}}}"

    @property
    def q(self) -> int:
        return self.base.q

    @property
    def order(self) -> int:
        return self.base.q**self.n

    def element(self, coeffs) -> ExtElement:
        """Element sum c_j z^j from at most n coefficients (F_q elements or ints)."""
        if len(coeffs) > self.n:
            raise BadInput("too many coefficients for this extension")
        coords = []
        for c in coeffs:
            if not isinstance(c, FieldElement):
                c = self.base.embed_int(c)
            else:
                FieldElement._require(self.base, c)
            coords.extend(c.coeffs)
        pad = (0,) * (self.base.k * self.n - len(coords))
        return ExtElement(self, tuple(coords) + pad)

    def gen(self) -> ExtElement:
        """The class of z, the adjoined root of ext_modulus."""
        return self.element((0, 1))

    def embed(self, a: FieldElement) -> ExtElement:
        return self.element((a,))

    def from_int(self, v: int) -> ExtElement:
        """Element whose coordinates are the base-p digits of v (0 <= v < q^n)."""
        if not 0 <= (v := _as_int(v)) < self.order:
            raise BadInput(f"{v} names no element of F_{{{self.q}^{self.n}}}")
        return ExtElement(self, _digits(v, self.base.p, self.base.k * self.n))

    def elements(self):
        """All elements, in from_int order."""
        dim = self.base.k * self.n
        for digits in itertools.product(range(self.base.p), repeat=dim):
            yield ExtElement(self, digits[::-1])


# Row-wise products through the product tensor cost rows*w^3 multiply-adds in
# three array operations, rows counted in B; the convolution loop of
# ``mulmod_rows`` costs fewer multiply-adds but a few array operations per
# nonzero column. At or below this many multiply-adds the tensor is the faster
# of the two.
_TENSOR_BUDGET = 1 << 16
# One element product through the tensor, two small matmuls, beats
# ``pmulmod``'s packed-integer product up to about this width k*n (measured
# timings in CHANGES.md); wider fields multiply and power by ``pmulmod``.
# Both read the field's one ``_polys._reduction_matrix``, cached per modulus.
_ELEMENT_TENSOR_WIDTH = 16


@lru_cache(maxsize=None)
def _ext_tensor(spec: ExtFieldSpec) -> np.ndarray:
    """(w, w*w) F_p array, w = k*n: entries a*w to a*w + w - 1 of row b hold
    the flat coordinates of u_a * u_b, u the unit vectors. So (c @ T) is
    Mul(c) flattened: row a of its (w, w) reshape holds u_a * c."""
    red = _polys._reduction_matrix(spec.base, spec.ext_modulus)
    return _polys.unit_products(spec.base, red).reshape(spec.base.k * spec.n, -1)


def _by_unit(spec: ExtFieldSpec, B: np.ndarray) -> np.ndarray:
    """Mul(b) for each row b of B, (..., w) to (..., w, w): row a of Mul(b)
    holds u_a * b, so a @ Mul(b) is a*b. Entries are below w*p^2."""
    return (B @ _ext_tensor(spec)).reshape(B.shape + B.shape[-1:])


def _on_tensor(w: int, rows: int) -> bool:
    """Whether products by ``rows`` multipliers of width w, their matrices
    rows*w^3 multiply-adds, fit ``_TENSOR_BUDGET``; no rows count as one."""
    return max(rows, 1) * w**3 <= _TENSOR_BUDGET


def _mul_rows(spec: ExtFieldSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A*B in F_{q^n} row by row: (..., k*n) int arrays of flat coordinates
    in [0, p), B broadcast against A by numpy's rules, for example (1, w)
    against (N, w) or (t, 1, w) against (t, N, w); the result has A's shape.

    Small batches go through ``_ext_tensor`` on B's own rows: B @ T holds
    Mul(B[r]) for each row of B, and A's rows are multiplied by the matching
    matrix. Its entries are below w*p^2 and the products' below w^2*p^3,
    inside int64 for p < 2^16 since the budget keeps w <= 40. Larger batches
    go through ``_polys.mulmod_rows`` (put the sparser operand second), with
    B broadcast to A's shape.
    """
    w = A.shape[-1]
    if not _on_tensor(w, B.size // w):
        B = np.broadcast_to(B, A.shape).reshape(-1, w)
        red = _polys._reduction_matrix(spec.base, spec.ext_modulus)
        out = _polys.mulmod_rows(spec.base, red, A.reshape(-1, w), B)
        return out.reshape(A.shape)
    return np.matmul(A[..., None, :], _by_unit(spec, B))[..., 0, :] % spec.base.p


@dataclass(frozen=True)
class ExtElement(_Residue):
    """Element of F_{q^n}: ``coords[j*k + l]`` is the coefficient of y^l z^j.
    The hash leaves out ``spec``, which equality still compares."""

    spec: ExtFieldSpec = field(hash=False)
    coords: tuple[int, ...]

    def in_base_field(self) -> bool:
        return not any(self.coords[self.spec.base.k :])

    def base_value(self) -> FieldElement:
        if not self.in_base_field():
            raise InternalError(f"fields: {self} does not lie in the base field")
        base = self.spec.base
        return base.element(self.coords[: base.k])

    def scale(self, s: FieldElement) -> ExtElement:
        """s*a for s in F_q: every slot times the k x k block of s."""
        base = self.spec.base
        FieldElement._require(base, s)
        block = _polys._block(base, s.coeffs)
        slots = np.reshape(self.coords, (-1, base.k))
        return ExtElement(self.spec, tuple((slots @ block.T % base.p).ravel().tolist()))

    def __mul__(self, other):
        self._check(other)
        spec = self.spec
        if len(self.coords) > _ELEMENT_TENSOR_WIDTH:
            red = _polys._reduction_matrix(spec.base, spec.ext_modulus)
            out = _polys.pmulmod(spec.base, red, self.coords, other.coords)
        else:
            by_other = _by_unit(spec, np.array(other.coords))
            out = tuple((np.array(self.coords) @ by_other % spec.base.p).tolist())
        return ExtElement(spec, out)

    def inverse(self) -> ExtElement:
        if self.is_zero():
            raise ZeroInverse("0 has no multiplicative inverse")
        return self ** (self.spec.order - 2)

    def __pow__(self, e: int):
        """self^e (0^0 = 1): by ``_polys.ppowmod`` on wide fields, and on narrow
        ones by square-and-multiply through the tensor, Mul(self) built once."""
        if e < 0:
            return self.inverse() ** (-e)
        spec = self.spec
        if len(self.coords) > _ELEMENT_TENSOR_WIDTH:
            red = _polys._reduction_matrix(spec.base, spec.ext_modulus)
            return ExtElement(spec, _polys.ppowmod(spec.base, red, self.coords, e))
        if e == 0:
            return spec.one()
        p, a = spec.base.p, np.array(self.coords)
        by_self = _by_unit(spec, a)
        acc = _polys._square_and_multiply(
            lambda u, v: u @ _by_unit(spec, v) % p, a, e, lambda u: u @ by_self % p
        )
        return ExtElement(spec, tuple(acc.tolist()))

    def __str__(self):
        return "[" + ",".join(map(str, self.coords)) + "]"


# --- Frobenius and norm ------------------------------------------------------


# the Frobenius powers that _frobenius_power's cache still holds, by (spec, i)
_frobenius_held = weakref.WeakValueDictionary()


@lru_cache(maxsize=None)
def _frobenius_power(spec: ExtFieldSpec, i: int) -> np.ndarray:
    """F_p matrix of a -> a^(q^i) on the flat coordinates of F_{q^n}, as a
    read-only array shared by every caller.

    Frob^1 is ``_polys._frobenius_q`` of the modulus. For i >= 2, Frob^i is
    Frob^j Frob^(i-j), j the highest power below i that the cache still holds
    (Frob^1 at least); the gap power Frob^(i-j) is Frob^1 raised to i - j by
    ``_polys._square_and_multiply``, from Frob^1 on, and is not cached. So an
    ascending walk costs one product per power, and a lone power one
    square-and-multiply. Asking for a power caches it and Frob^1 only.

    Entries are below p, so each power is stored in the narrowest unsigned
    dtype that holds p - 1: uint8, (k*n)^2 bytes, for p < 256 and uint16
    above. A reader must name the dtype of a product, by an int64 or float
    operand or ``dtype=``: a bare Python int leaves it in the table's dtype,
    where it wraps, in uint8 from the first product past 255.
    """
    base = spec.base
    if i == 0:
        out = np.eye(base.k * spec.n)
    elif i == 1:
        out = _polys._frobenius_q(base, spec.ext_modulus)
    else:
        frob = _linalg.cast_exact(_frobenius_power(spec, 1), base.p)
        j, below = 1, frob
        for h in range(i - 1, 1, -1):
            held = _frobenius_held.get((spec, h))
            if held is not None:
                j, below = h, held
                break
        gap = _polys._square_and_multiply(lambda a, b: _linalg.matmul_mod(a, b, base.p), frob, i - j)
        out = _linalg.matmul_mod(below, gap, base.p)
    out = out.astype(np.min_scalar_type(base.p - 1))
    out.flags.writeable = False
    _frobenius_held[spec, i] = out
    return out


def frobenius(a: ExtElement, i: int) -> ExtElement:
    """a^(q^i) for 0 <= i < n."""
    ExtElement._require_class(a)
    spec, i = a.spec, _as_int(i)
    if not 0 <= i < spec.n:
        raise BadInput(f"frobenius exponent {i} outside [0, {spec.n})")
    if i == 0:
        return a
    out = _frobenius_power(spec, i) @ a.coords % spec.base.p
    return ExtElement(spec, tuple(out.tolist()))


def norm(a: ExtElement) -> FieldElement:
    """Field norm N_{F_{q^n}/F_q}(a) = a^((q^n-1)/(q-1)), by ``__pow__``."""
    ExtElement._require_class(a)
    spec = a.spec
    if a.is_zero():
        return spec.base.zero()
    b = a ** ((spec.order - 1) // (spec.q - 1))
    if not b.in_base_field():
        raise InternalError("fields: norm value escaped the base field")
    return b.base_value()


# --- orders and primitive elements -------------------------------------------


def integer_order_mod(q: int, n: int) -> int:
    """Least m >= 1 with q^m = 1 (mod n)."""
    q, n = _as_int(q), _as_int(n)
    if n < 1 or gcd(q, n) != 1:
        raise NotCoprime(f"gcd({q}, {n}) != 1")
    if n == 1:
        return 1
    m, acc = 1, q % n
    while acc != 1:
        acc = (acc * q) % n
        m += 1
    return m


def element_order(a) -> int:
    """Multiplicative order of a nonzero field element.

    Each prime of the group order, from ``_polys._prime_factors``, is divided
    out of it while the power stays 1.
    """
    if a.__class__ is not FieldElement:
        ExtElement._require_class(a)
    if a.is_zero():
        raise ZeroOrder("0 has no multiplicative order")
    group = a.spec.order - 1
    one = a.spec.one()
    o = group
    for prime in _polys._prime_factors(group):
        while o % prime == 0 and a ** (o // prime) == one:
            o //= prime
    return o


def element_of_order(spec, n: int):
    """First element of exact multiplicative order n in a deterministic scan.

    Avoids factoring the full group order: candidates u are mapped to
    u^((order-1)/n), whose order always divides n, and the order is then
    confirmed against the prime factors of n alone.
    """
    if spec.__class__ is not FieldSpec:
        ExtFieldSpec._require_class(spec)
    if (n := _as_int(n)) < 1:
        raise BadInput(f"no element of order {n}: an order is >= 1")
    group = spec.order - 1
    if n == 1:
        return spec.one()
    if group % n != 0:
        raise BadInput(f"no element of order {n}: {n} does not divide {group}")
    cofactor = group // n
    radicals = [n // r for r in _polys._prime_factors(n)]
    one = spec.one()
    for v in range(2, spec.order):
        zeta = spec.from_int(v) ** cofactor
        if zeta != one and all(zeta**e != one for e in radicals):
            return zeta
    raise InternalError("fields: no element of the requested order found")  # pragma: no cover


# --- irreducible polynomials and default specs -------------------------------


def _draws(rng: random.Random, q: int, count: int) -> np.ndarray:
    """``count`` values of ``rng.randrange(q)``, in order, and ``rng`` left
    where that many calls leave it; int64 for q < 2^63, else Python ints.

    One call draws an attempt of b = bitlen(q) bits from m = ceil(b/32)
    words, read little-endian with the top word shifted right by 32m - b,
    until an attempt is below q. ``getrandbits(32*m*t)`` hands out the words
    of t attempts in that same order, so each round draws exactly as many
    attempts as values are still missing and keeps those below q.
    """
    bits = q.bit_length()
    m = -(-bits // 32)
    dtype = np.int64 if q < 2**63 else object
    rounds = []
    while count:
        block = rng.getrandbits(32 * m * count).to_bytes(4 * m * count, "little")
        words = np.frombuffer(block, dtype="<u4").reshape(count, m).astype(dtype)
        words[:, -1] >>= 32 * m - bits
        values = words[:, 0]
        for i in range(1, m):
            values = values + (words[:, i] << 32 * i)
        values = values[values < q]
        rounds.append(values)
        count -= len(values)
    return np.concatenate(rounds)


def find_irreducible(base: FieldSpec, degree: int, seed: int = 0) -> tuple[int, ...]:
    """Deterministic seeded search for a monic irreducible of exact degree,
    returned by its flat coordinates (as ``ExtFieldSpec.ext_modulus``).

    Each lower coefficient is ``base.from_int`` of one draw in [0, q), as
    ``rng.randrange(q)`` would draw it (``_draws``).
    """
    FieldSpec._require_class(base)
    if (degree := _as_int(degree)) < 1:
        raise BadInput("degree must be >= 1")
    _check_field_degree(base.p, base.k * degree)
    rng = random.Random(f"{_as_int(seed)}:{base.p}:{base.k}:{degree}")
    while True:
        draws = _draws(rng, base.q, degree)
        # coordinate l of a coefficient is base-p digit l of its draw
        digits = np.stack(_digits(draws, base.p, base.k), axis=1)
        candidate = tuple(digits.ravel().tolist()) + _polys.pone(base)
        if _polys.pis_irreducible(base, candidate):
            _proved.add((base, candidate))
            return candidate


def _prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k. Only divisors below 2^16 are tried: a q >= 2 with
    none comes back as (q, 1), for ``FieldSpec`` to refuse as too large."""
    if q < 2:
        raise BadInput("q must be >= 2")
    p = next((d for d in range(2, min(q, _MAX_PRIME)) if q % d == 0), q)
    k = 0
    while q % p == 0:
        q //= p
        k += 1
    if q != 1:
        raise BadInput("q must be a prime power")
    return p, k


def _modulus(base: FieldSpec, degree: int, seed: int) -> tuple[int, ...]:
    """The modulus of a field of this degree over ``base``: the canonical one
    over a prime field at seed 0, where there is one, else the search's."""
    if base.k == 1 and seed == 0 and (base.p, degree) in CANONICAL_BASE_MODULI:
        return CANONICAL_BASE_MODULI[base.p, degree]
    return find_irreducible(base, degree, seed)


def base_field(q: int) -> FieldSpec:
    """F_q with the modulus ``_modulus`` picks: the canonical one where there
    is one (F_8 uses y^3 + y + 1), else the search's. q is read before the
    cache, so every spelling of an integer is one entry of ``_base_field``."""
    return _base_field(_as_int(q))


@lru_cache(maxsize=None)
def _base_field(q: int) -> FieldSpec:
    p, k = _prime_power(q)
    return FieldSpec(p, k, _modulus(FieldSpec(p), k, 0) if k > 1 else None)


@lru_cache(maxsize=None)
def _extension_field(q: int, n: int, seed: int) -> ExtFieldSpec:
    # refuse the degree before searching for a modulus of it, or of the base
    # field's; the ring F_q[x]/(x^n - 1) that this field serves needs
    # gcd(n, p) = 1
    p, k = _prime_power(q)
    _check_degree(n)
    _check_field_degree(p, k * n)
    base = base_field(q)
    if gcd(n, base.p) != 1:
        raise BadInput(f"gcd(n, p) must be 1; got n = {n}, p = {base.p}")
    return ExtFieldSpec(base, n, _modulus(base, n, seed))


def extension_field(q: int, n: int, seed: int = 0) -> ExtFieldSpec:
    """F_{q^n} over base_field(q) with a seeded deterministic modulus.

    q, n and the seed are read as ints and passed on by position, so every
    spelling of the same (q, n, seed) is one entry of ``_extension_field``'s
    cache.
    """
    return _extension_field(_as_int(q), _as_int(n), _as_int(seed))


# the caches' counters stay reachable through the public names
base_field.__wrapped__ = _base_field
extension_field.__wrapped__ = _extension_field
