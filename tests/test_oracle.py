"""Brute-force oracles used to cross-check the symbolic machinery."""

import itertools
import random

import pytest

from linperm import (
    LinearizedPoly,
    RingSpec,
    base_field,
    discrete_log,
    extension_field,
    fixed_points,
    identity,
    is_bijection_bruteforce,
    is_permutation,
    is_permutation_rank,
    kernel,
    parse_linearized,
    primitive_idempotents,
    sqrt_unity_bruteforce,
)
from linperm.errors import NotPrimitive, TooLarge, ZeroInverse
from linperm.oracle import involution_check_pointwise


def test_bijection_vs_symbolic_exhaustive_f8():
    E = extension_field(2, 3)
    basis = primitive_idempotents(RingSpec(base_field(2), 3))
    for coeffs in itertools.product(range(8), repeat=3):
        F = LinearizedPoly(E, tuple(E.from_int(v) for v in coeffs))
        assert is_bijection_bruteforce(F) == is_permutation_rank(F)


def test_bijection_vs_symbolic_sampled_f35():
    from linperm import has_base_coeffs

    E = extension_field(3, 5)
    basis = primitive_idempotents(RingSpec(base_field(3), 5))
    rng = random.Random(2024)
    for _ in range(60):
        F = LinearizedPoly(E, tuple(E.from_int(rng.randrange(243)) for _ in range(5)))
        assert is_bijection_bruteforce(F) == is_permutation_rank(F)
        if has_base_coeffs(F):
            assert is_bijection_bruteforce(F) == is_permutation(F, basis)
    # a non-prime base: the rank test runs on 6 x 6 matrices over F_2
    E = extension_field(4, 3)
    basis = primitive_idempotents(RingSpec(base_field(4), 3))
    rng = random.Random(2025)
    for j in range(120):
        if j % 2:
            coeffs = [E.embed(E.base.from_int(rng.randrange(4))) for _ in range(3)]
        else:
            coeffs = [E.from_int(rng.randrange(64)) for _ in range(3)]
        F = LinearizedPoly(E, tuple(coeffs))
        assert is_bijection_bruteforce(F) == is_permutation_rank(F)
        if has_base_coeffs(F):
            assert is_bijection_bruteforce(F) == is_permutation(F, basis)


def test_kernel_image_product():
    E = extension_field(3, 5)
    rng = random.Random(99)
    for _ in range(10):
        F = LinearizedPoly(E, tuple(E.from_int(rng.randrange(243)) for _ in range(5)))
        ker = kernel(F)
        from linperm import evaluate

        image = {evaluate(F, a) for a in E.elements()}
        assert len(ker) * len(image) == E.order
        assert E.zero() in ker


def test_kernel_of_permutation_trivial():
    E = extension_field(3, 5)
    assert kernel(identity(E)) == [E.zero()]


def test_fixed_points_identity():
    E = extension_field(2, 3)
    assert len(fixed_points(identity(E))) == 8


def test_fixed_points_involution():
    from linperm import evaluate, sign_vector_involutions

    E = extension_field(3, 5)
    basis = primitive_idempotents(RingSpec(base_field(3), 5))
    F = sign_vector_involutions(basis)[1]
    fp = fixed_points(F)
    assert 0 < len(fp) < E.order
    for a in fp:
        assert evaluate(F, a) == a


def test_sqrt_unity_counts():
    # characteristic 2 collapses to the single root 1
    for q, n, want in [(3, 2, 4), (5, 2, 4), (3, 4, 8), (2, 3, 1)]:
        R = RingSpec(base_field(q), n)
        roots = sqrt_unity_bruteforce(R)
        assert len(roots) == want
        for r in roots:
            assert r * r == R.one()


def test_discrete_log_values():
    E = extension_field(2, 3)
    z = E.gen()
    g = z + E.one()  # primitive for the y^3 = y + 1 modulus
    assert discrete_log(g, g) == 1
    assert discrete_log(E.one(), g) == 0
    for l in range(7):
        assert discrete_log(g**l, g) == l


def test_discrete_log_not_primitive():
    E = extension_field(3, 5)
    with pytest.raises(NotPrimitive):
        discrete_log(E.gen(), E.one())


def test_discrete_log_zero():
    E = extension_field(2, 3)
    z = E.gen()
    with pytest.raises(ZeroInverse):
        discrete_log(E.zero(), z + E.one())


def test_involution_check_pointwise():
    E = extension_field(11, 9)
    F = parse_linearized("8x^[6]+8x^[3]+7x", E)
    assert involution_check_pointwise(F, samples=200, seed=1)
    assert not involution_check_pointwise(parse_linearized("2x", E), samples=200, seed=1)


def test_pointwise_seeded_reproducible():
    E = extension_field(3, 5)
    F = identity(E)
    assert involution_check_pointwise(F, samples=50, seed=7) == involution_check_pointwise(
        F, samples=50, seed=7
    )


def test_too_large_caps():
    E = extension_field(3, 125)
    with pytest.raises(TooLarge):
        is_bijection_bruteforce(identity(E))
    with pytest.raises(TooLarge):
        sqrt_unity_bruteforce(RingSpec(base_field(3), 125))
