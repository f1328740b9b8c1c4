"""Brute-force oracles: slow, independent checks used to validate the fast paths.

Everything here works by plain enumeration or seeded sampling and deliberately
shares no code with the idempotent, gcd or rank criteria it is used to verify.
Enumeration caps are hard errors, never silent downgrades to sampling.
"""

from __future__ import annotations

import random

from .errors import NotPrimitive, TooLarge, ZeroInverse
from .fields import ExtElement
from .linearized import LinearizedPoly, evaluate
from .polyring import RingElement, RingSpec, ring_mul

__all__ = [
    "ENUM_CAP",
    "is_bijection_bruteforce",
    "kernel",
    "fixed_points",
    "sqrt_unity_bruteforce",
    "discrete_log",
    "involution_check_pointwise",
]

ENUM_CAP = 10**6


def _check_cap(size: int, cap: int) -> None:
    if size > cap:
        raise TooLarge(f"enumeration over {size} elements exceeds cap {cap}")


def is_bijection_bruteforce(F: LinearizedPoly, cap: int = ENUM_CAP) -> bool:
    spec = F.spec
    _check_cap(spec.order, cap)
    seen = set()
    for a in spec.elements():
        image = evaluate(F, a)
        if image in seen:
            return False
        seen.add(image)
    return True


def kernel(F: LinearizedPoly, cap: int = ENUM_CAP) -> list[ExtElement]:
    spec = F.spec
    _check_cap(spec.order, cap)
    return [a for a in spec.elements() if evaluate(F, a).is_zero()]


def fixed_points(F: LinearizedPoly, cap: int = ENUM_CAP) -> list[ExtElement]:
    spec = F.spec
    _check_cap(spec.order, cap)
    return [a for a in spec.elements() if evaluate(F, a) == a]


def sqrt_unity_bruteforce(spec: RingSpec, cap: int = ENUM_CAP) -> list[RingElement]:
    """All f in F_q[x]/(x^n - 1) with f^2 = 1, by full ring enumeration."""
    import itertools

    _check_cap(spec.base.q ** spec.n, cap)
    one = spec.one()
    slots = [c.coeffs for c in spec.base.elements()]
    out = []
    for coeffs in itertools.product(slots, repeat=spec.n):
        f = RingElement(spec, sum(coeffs, ()))
        if ring_mul(f, f) == one:
            out.append(f)
    return out


def discrete_log(a: ExtElement, beta: ExtElement, cap: int = ENUM_CAP) -> int:
    """Least l >= 0 with beta^l = a, by stepping through the powers of beta."""
    spec = a.spec
    group = spec.order - 1
    _check_cap(group, cap)
    if a.is_zero():
        raise ZeroInverse("0 is not in the multiplicative group")
    from .fields import element_order

    if beta.is_zero() or element_order(beta) != group:
        raise NotPrimitive("beta is not a primitive element")
    power = spec.one()
    for l in range(group):
        if power == a:
            return l
        power = power * beta
    raise NotPrimitive("beta does not generate the target")


def involution_check_pointwise(
    F: LinearizedPoly, samples: int, seed: int
) -> bool:
    """Seeded spot-check of F(F(a)) = a; false at the first failing sample."""
    spec = F.spec
    rng = random.Random(seed)
    order = spec.order
    for _ in range(samples):
        a = spec.from_int(rng.randrange(order))
        if evaluate(F, evaluate(F, a)) != a:
            return False
    return True
