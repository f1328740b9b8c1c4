"""Brute-force oracles: slow, independent checks used to validate the fast paths.

Everything here works by plain enumeration or seeded sampling and deliberately
shares no code with the idempotent, gcd or rank criteria it is used to verify.
Points are evaluated by ``linearized.evaluate_many``, which shares with the
rest of the package only the row-wise product ``fields._mul_rows``
(``_polys.mulmod_rows`` with the reduction matrix of
``_polys._reduction_matrix``, or the product tensor read off that matrix). It
builds its own Frobenius powers from a q-th powering and must not read
``fields._frobenius_power``, ``_linalg`` or ``linearized._mul_matrix``, the pieces
of the rank test, so a wrong Frobenius matrix cannot fool both.

F is F_p-linear, so a check that applies F to at least k*n points builds its
image matrix once, F at the k*n unit vectors by ``evaluate_many``, and applies
it as ``A @ M % p``: every enumeration of the field (the bijection check,
``kernel``, ``fixed_points``) once for all its batches, and
``involution_check_pointwise`` when it draws at least k*n samples; with fewer
it evaluates F at the samples themselves. Enumeration caps are hard
errors, never silent downgrades to sampling.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from .errors import BadInput, NotPrimitive, TooLarge, ZeroInverse
from .fields import ExtElement, ExtFieldSpec, FieldElement, _as_int, element_order
from .linearized import LinearizedPoly, evaluate_many
from .polyring import RingElement, RingSpec, ring_mul

ENUM_CAP = 10**6
# points evaluated per batch
CHUNK = 4096


def _check_cap(size: int) -> None:
    if size > ENUM_CAP:
        raise TooLarge(f"enumeration over {size} elements exceeds cap {ENUM_CAP}")


def _places(spec: ExtFieldSpec) -> np.ndarray:
    """p^j for each flat coordinate j: a row's dot product with them is its
    from_int index. Indices past int64 are kept as Python ints."""
    p, width = spec.base.p, spec.base.k * spec.n
    dtype = np.int64 if spec.order < 2**62 else object
    return np.array([p**j for j in range(width)], dtype=dtype)


def _rows(spec: ExtFieldSpec, indices) -> np.ndarray:
    """Flat coordinates of ``from_int(v)`` for each v in indices, one row each."""
    places = _places(spec)
    values = np.array(indices, dtype=places.dtype).reshape(-1, 1)
    return (values // places % spec.base.p).astype(np.int64)


def _enumerate(spec: ExtFieldSpec):
    """Flat coordinates of every element, CHUNK rows at a time in from_int order."""
    for start in range(0, spec.order, CHUNK):
        yield _rows(spec, np.arange(start, min(start + CHUNK, spec.order)))


def _image_matrix(F: LinearizedPoly) -> np.ndarray:
    """(k*n, k*n) array whose row j is F(u_j), u_j the j-th unit vector: F is
    F_p-linear, so A @ M % p holds F at every row of A."""
    width = F.spec.base.k * F.spec.n
    return evaluate_many(F, np.eye(width, dtype=np.int64))


def is_bijection_bruteforce(F: LinearizedPoly) -> bool:
    """Whether the images of all elements are distinct; false at the first
    batch whose images repeat one seen before or within it, which is the
    first batch after which fewer images are marked seen than elements
    were enumerated."""
    LinearizedPoly._require_class(F)
    spec = F.spec
    _check_cap(spec.order)
    seen = np.zeros(spec.order, dtype=bool)
    M, p, places = _image_matrix(F), spec.base.p, _places(spec)
    count = 0
    for rows in _enumerate(spec):
        seen[rows @ M % p @ places] = True
        count += len(rows)
        if np.count_nonzero(seen) < count:
            return False
    return True


def _select(F: LinearizedPoly, keep) -> list[ExtElement]:
    """The elements a, in from_int order, for which keep(a, F(a)) holds row-wise."""
    LinearizedPoly._require_class(F)
    spec = F.spec
    _check_cap(spec.order)
    M, p = _image_matrix(F), spec.base.p
    out = []
    for rows in _enumerate(spec):
        hits = rows[keep(rows, rows @ M % p)]
        out.extend(ExtElement(spec, tuple(r)) for r in hits.tolist())
    return out


def kernel(F: LinearizedPoly) -> list[ExtElement]:
    return _select(F, lambda rows, images: ~images.any(axis=1))


def fixed_points(F: LinearizedPoly) -> list[ExtElement]:
    return _select(F, lambda rows, images: (images == rows).all(axis=1))


def sqrt_unity_bruteforce(spec: RingSpec) -> list[RingElement]:
    """All f in F_q[x]/(x^n - 1) with f^2 = 1, by full ring enumeration."""
    RingSpec._require_class(spec)
    _check_cap(spec.base.q ** spec.n)
    one = spec.one()
    slots = [c.coeffs for c in spec.base.elements()]
    out = []
    for coeffs in itertools.product(slots, repeat=spec.n):
        f = RingElement(spec, sum(coeffs, ()))
        if ring_mul(f, f) == one:
            out.append(f)
    return out


def discrete_log(a: ExtElement, beta: ExtElement) -> int:
    """Least l >= 0 with beta^l = a, by stepping through the powers of beta."""
    if a.__class__ is not FieldElement:
        ExtElement._require_class(a)
    a._check(beta)
    spec = a.spec
    group = spec.order - 1
    _check_cap(group)
    if a.is_zero():
        raise ZeroInverse("0 is not in the multiplicative group")
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
    """Seeded spot-check of F(F(a)) = a; false at the first batch with a
    failing sample. The samples are ``from_int`` of successive
    ``randrange(q^n)`` draws, CHUNK at a time. With at least k*n samples F
    is applied through ``_image_matrix``, built once; with fewer it is
    evaluated at the samples themselves by ``evaluate_many``."""
    LinearizedPoly._require_class(F)
    if (samples := _as_int(samples)) < 1:
        raise BadInput(f"samples must be >= 1, got {samples}")
    spec = F.spec
    M = _image_matrix(F) if samples >= spec.base.k * spec.n else None
    rng = random.Random(_as_int(seed))
    order = spec.order
    for start in range(0, samples, CHUNK):
        draws = [rng.randrange(order) for _ in range(min(CHUNK, samples - start))]
        A = images = _rows(spec, draws)
        for _ in range(2):
            images = evaluate_many(F, images) if M is None else images @ M % spec.base.p
        if not (images == A).all():
            return False
    return True
