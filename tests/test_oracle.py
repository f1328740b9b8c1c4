"""Brute-force oracles used to cross-check the symbolic machinery."""

import itertools
import random

import numpy as np
import pytest

from linperm import (
    LinearizedPoly,
    RingSpec,
    base_field,
    discrete_log,
    evaluate,
    extension_field,
    find_irreducible,
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
from linperm.fields import ExtFieldSpec
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


# --- independence from the rank test ------------------------------------------

# answers recorded from the oracles that evaluated one point at a time: bijection,
# kernel and fixed points as from_int indices, and F at from_int(order // 3)
ORACLE_ANSWERS = [
    ((3, 5), "x^[3]+x^[1]+x", False, [0, 1, 2], [0], 136),
    ((3, 5), "2x^[3]+x^[1]+x", True, [0], [0, 1, 2], 181),
    ((3, 5), "x^[4]+2x^[2]", False, [0, 1, 2], [0], 114),
    ((4, 3), "[0,1,0,0,0,0]*x^[1]+x", False, [0, 27, 45, 54], [0], 43),
    ((4, 3), "[0,1,0,0,0,0]*x^[2]+[1,1,0,0,0,0]*x", False, [0, 27, 45, 54], [0, 1, 2, 3], 41),
    ((4, 3), "2x^[2]+x", False, [0, 20, 40, 60], [0], 3),
    ((2, 3), "x^[2]+x^[1]+x", False, [0, 2, 4, 6], [0, 1], 0),
    ((2, 3), "x^[1]", True, [0], [0, 1], 4),
    ((5, 2), "4x^[1]+x", False, [0, 1, 2, 3, 4], [0], 13),
    ((5, 2), "[1,3]*x^[1]+2x", False, [0, 8, 11, 19, 22], [0], 0),
]
# (poly over F_{11^9}, involution_check_pointwise(F, 200, 1), F at from_int(123456789))
POINTWISE_ANSWERS = [
    ("8x^[6]+8x^[3]+7x", True, 472445572),
    ("2x", False, 30620754),
    ("3x^[8]+x^[7]+2x^[6]+8x^[5]+x^[4]+x^[3]+x^[2]+4x^[1]+5x", False, 981628287),
]


def _index(a):
    return sum(c * a.spec.base.p**j for j, c in enumerate(a.coords))


def _replace_frobenius(monkeypatch, fake):
    """Swap in fake Frobenius tables and empty the oracle's own table and the
    product tensors, which are then rebuilt under the fake."""
    from functools import lru_cache

    from linperm import fields, linearized

    monkeypatch.setattr(fields, "_frobenius_power", fake)
    monkeypatch.setattr(linearized, "_frobenius_power", fake)
    monkeypatch.setattr(linearized, "_powers_held", {})
    monkeypatch.setattr(fields, "_ext_tensor", lru_cache(fields._ext_tensor.__wrapped__))


def test_oracles_need_nothing_from_the_rank_test(monkeypatch):
    from linperm import _linalg, _polys, evaluate, linearized

    fields_ = {qn: extension_field(*qn) for qn, *_ in ORACLE_ANSWERS}
    E9 = extension_field(11, 9)

    def fake(*args):
        raise AssertionError("the oracle read the rank test")

    _replace_frobenius(monkeypatch, fake)
    monkeypatch.setattr(_linalg, "rank_mod", fake)
    monkeypatch.setattr(linearized, "_mul_matrix", fake)
    monkeypatch.setattr(_polys, "_square_and_multiply", fake)
    for qn, text, bijective, ker, fixed, image in ORACLE_ANSWERS:
        E = fields_[qn]
        F = parse_linearized(text, E)
        assert is_bijection_bruteforce(F) == bijective
        assert [_index(a) for a in kernel(F)] == ker
        assert [_index(a) for a in fixed_points(F)] == fixed
        assert _index(evaluate(F, E.from_int(E.order // 3))) == image
    for text, involution, image in POINTWISE_ANSWERS:
        F = parse_linearized(text, E9)
        assert involution_check_pointwise(F, samples=200, seed=1) == involution
        assert _index(evaluate(F, E9.from_int(123456789))) == image


def test_wrong_frobenius_fools_the_rank_test_alone(monkeypatch):
    from linperm import fields

    E = extension_field(3, 5)
    rng = random.Random(7)
    polys = [
        LinearizedPoly(E, tuple(E.from_int(rng.randrange(243)) for _ in range(5)))
        for _ in range(40)
    ]
    honest = [is_permutation_rank(F) for F in polys]
    real, swap = fields._frobenius_power, {1: 2, 2: 1}
    _replace_frobenius(monkeypatch, lambda spec, i: real(spec, swap.get(i, i)))
    assert [is_bijection_bruteforce(F) for F in polys] == honest
    assert [is_permutation_rank(F) for F in polys] != honest


def test_bijection_in_chunks_on_531441_points():
    # F_{27^4} has 3^12 elements, 130 chunks
    E = extension_field(27, 4)
    unit, non_unit = parse_linearized("5x^[1]+x", E), parse_linearized("x^[1]+2x", E)
    assert is_permutation_rank(unit) and is_bijection_bruteforce(unit)
    assert not is_permutation_rank(non_unit) and not is_bijection_bruteforce(non_unit)


def test_chunk_boundaries_do_not_change_answers(monkeypatch):
    from linperm import oracle

    E = extension_field(3, 5)
    rng = random.Random(31)
    polys = [
        LinearizedPoly(E, tuple(E.from_int(rng.randrange(243)) for _ in range(5)))
        for _ in range(12)
    ] + [identity(E), parse_linearized("2x^[3]+x^[1]+x", E)]

    def answers():
        return [
            (
                is_bijection_bruteforce(F),
                kernel(F),
                fixed_points(F),
                involution_check_pointwise(F, samples=30, seed=3),
            )
            for F in polys
        ]

    whole = answers()
    monkeypatch.setattr(oracle, "CHUNK", 7)  # 243 = 34 * 7 + 5
    assert answers() == whole


def test_pointwise_on_a_field_past_int64():
    # 3^125 > 2^63: the draws are split into coordinates as Python ints
    E = extension_field(3, 125)
    assert involution_check_pointwise(identity(E), samples=5, seed=1)
    assert involution_check_pointwise(parse_linearized("2x", E), samples=5, seed=1)
    assert not involution_check_pointwise(parse_linearized("x^[1]", E), samples=5, seed=1)


# --- the image matrix: one per check, across batches -------------------------


def _count_batches(monkeypatch):
    """Sizes of the batches the enumeration hands out, as they are read."""
    from linperm import oracle

    sizes, real = [], oracle._enumerate

    def counting(spec):
        for rows in real(spec):
            sizes.append(len(rows))
            yield rows

    monkeypatch.setattr(oracle, "_enumerate", counting)
    return sizes


def _poly(E, coeffs):
    """x-coefficient first; an int is from_int of it."""
    coeffs = [E.from_int(c) if isinstance(c, int) else c for c in coeffs]
    return LinearizedPoly(E, tuple(coeffs) + (E.zero(),) * (E.n - len(coeffs)))


def test_bijection_over_two_batches_of_f_2_13(monkeypatch):
    E = extension_field(2, 13)  # 8192 points, two batches
    sizes = _count_batches(monkeypatch)
    assert is_bijection_bruteforce(_poly(E, [0, 1]))  # x^[1]
    assert sizes == [4096, 4096]
    # x^[1] + x vanishes at 1 = from_int(1): the first batch repeats 0
    sizes.clear()
    assert not is_bijection_bruteforce(_poly(E, [1, 1]))
    assert sizes == [4096]
    # x^[1] + c*x vanishes at c = z^12 = from_int(4096) alone: the first batch,
    # the span of z^0..z^11, maps one to one, and the second repeats F(0) = 0
    sizes.clear()
    assert not is_bijection_bruteforce(_poly(E, [4096, 1]))
    assert sizes == [4096, 4096]


def test_bijection_over_two_batches_of_f_3_8(monkeypatch):
    from linperm import oracle

    E = extension_field(3, 8)  # 6561 points, two batches
    sizes = _count_batches(monkeypatch)
    assert is_bijection_bruteforce(_poly(E, [2]))  # 2x
    assert sizes == [4096, 2465]
    # x^[1] - x vanishes on F_3: the first batch repeats 0
    sizes.clear()
    assert not is_bijection_bruteforce(_poly(E, [2, 1]))
    assert sizes == [4096]
    # x^[1] - c^2 x vanishes at +-c, c = z^7 = from_int(2187); with batches of
    # 3^7 points the first is the span of z^0..z^6 and the second repeats 0
    c = E.from_int(3**7)
    monkeypatch.setattr(oracle, "CHUNK", 3**7)
    sizes.clear()
    assert not is_bijection_bruteforce(_poly(E, [-(c * c), 1]))
    assert sizes == [3**7, 3**7]
    rng = random.Random(38)
    for _ in range(6):
        F = _poly(E, [rng.randrange(E.order) for _ in range(3)])
        assert is_bijection_bruteforce(F) == is_permutation_rank(F)


def _evaluated_rows(monkeypatch):
    """Row counts of every evaluate_many call the oracle makes."""
    from linperm import oracle

    counts, real = [], oracle.evaluate_many

    def counting(F, A):
        counts.append(len(np.asarray(A)))
        return real(F, A)

    monkeypatch.setattr(oracle, "evaluate_many", counting)
    return counts


def _replayed(F, samples, seed):
    """Whether F(F(a)) = a at each sample the check draws, one evaluate each."""
    E, rng = F.spec, random.Random(seed)
    points = [E.from_int(rng.randrange(E.order)) for _ in range(samples)]
    return [evaluate(F, evaluate(F, a)) == a for a in points]


def _half_involution(E):
    """x + c*Tr(x) with Tr(c) = 1 over F_{2^n}: F(F(x)) = x + c*Tr(x), so F is
    an involution exactly on the trace-0 hyperplane, half the points."""
    c = next(E.from_int(v) for v in range(1, E.order) if _trace(E.from_int(v)) == E.one())
    return _poly(E, [c + E.one()] + [c] * (E.n - 1))


def _trace(a):
    out, power = a, a
    for _ in range(a.spec.n - 1):
        power = power * power
        out = out + power
    return out


@pytest.mark.parametrize("q,n,samples", [(2, 13, 4), (2, 5, 6), (2, 5, 5)])
def test_pointwise_fails_at_one_failing_sample(monkeypatch, q, n, samples):
    # below k*n samples F is evaluated at the samples, at or above it through
    # the image matrix; either way one failing sample in the batch is enough
    E = extension_field(q, n)
    F = _half_involution(E)
    counts = _evaluated_rows(monkeypatch)
    outcomes = {}
    for seed in range(200):
        passed = _replayed(F, samples, seed)
        counts.clear()
        assert involution_check_pointwise(F, samples, seed) == all(passed)
        if samples < n:
            assert counts == [samples, samples]
        else:
            assert counts == [n]  # the unit vectors, once
        outcomes.setdefault(passed.count(False), seed)
    assert 0 in outcomes and 1 in outcomes  # a passing seed, and one known failure


@pytest.mark.parametrize("samples", [5, 9, 12, 5000])
def test_pointwise_on_f_11_9_below_and_above_the_width(monkeypatch, samples):
    E = extension_field(11, 9)
    counts = _evaluated_rows(monkeypatch)
    assert involution_check_pointwise(parse_linearized("8x^[6]+8x^[3]+7x", E), samples, 4)
    # one slot of the involution moved: F(F(a)) = a only at a = 0
    assert not involution_check_pointwise(parse_linearized("9x^[6]+8x^[3]+7x", E), samples, 4)
    if samples < 9:
        assert counts == [samples] * 4
    else:
        assert counts == [9, 9]  # one image matrix per check, for every batch


def test_pointwise_on_a_wide_field_evaluates_at_the_samples(monkeypatch):
    # 12 samples on F_{5^155}: F is applied at the samples, never through a
    # 155 x 155 image matrix
    B = base_field(5)
    E = ExtFieldSpec(B, 155, find_irreducible(B, 155, 0))
    counts = _evaluated_rows(monkeypatch)
    assert involution_check_pointwise(parse_linearized("4x", E), samples=12, seed=1)
    assert not involution_check_pointwise(parse_linearized("x^[1]+x", E), samples=12, seed=1)
    assert counts == [12, 12, 12, 12]
