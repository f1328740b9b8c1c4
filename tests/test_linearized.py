"""Linearized polynomials: associates, composition, permutation tests, inverses."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linperm import (
    LinearizedPoly,
    RingSpec,
    a_complete_check,
    a_complete_sufficient_pm,
    base_field,
    binomial_is_permutation,
    closed_form_pm,
    coefficient_sum_reject,
    compose,
    compositional_inverse,
    conventional_associate,
    evaluate,
    evaluate_many,
    extension_field,
    format_linearized,
    identity,
    is_bijection_bruteforce,
    is_involution,
    is_permutation,
    is_permutation_gcd,
    is_permutation_rank,
    linearized_associate,
    parse_linearized,
    pm_sufficient_conditions,
    primitive_idempotents,
    project,
    reconstruct,
    ring_mul,
    sign_vector_involutions,
    sqrt_unity_bruteforce,
)
from linperm.errors import (
    BadInput,
    CoefficientsNotInBaseField,
    NotAPermutation,
    SpecMismatch,
    ZeroCoefficient,
    ZeroNotInA,
)
from linperm._linalg import rank_mod
from linperm.linearized import a_complete_verdicts

E35 = extension_field(3, 5)
R35 = RingSpec(base_field(3), 5)


def basis35():
    return primitive_idempotents(R35)


def rand_base_poly(rng, ext):
    q = ext.base.q
    return LinearizedPoly(
        ext, tuple(ext.embed(ext.base.from_int(rng.randrange(q))) for _ in range(ext.n))
    )


# --- associates --------------------------------------------------------------


def test_associate_roundtrip_identity():
    F = identity(E35)
    f = conventional_associate(F)
    assert f == R35.one()
    assert linearized_associate(f, E35) == F


def test_associate_requires_base_coeffs():
    z = E35.gen()
    F = LinearizedPoly.monomial(E35, z, 1)
    with pytest.raises(CoefficientsNotInBaseField):
        conventional_associate(F)


@given(st.lists(st.integers(0, 2), min_size=5, max_size=5))
def test_associate_roundtrip(coeffs):
    f = R35.element([R35.base.embed_int(c) for c in coeffs])
    assert conventional_associate(linearized_associate(f, E35)) == f


# --- evaluation and composition ----------------------------------------------


@given(st.integers(0, 242), st.integers(0, 242))
def test_evaluate_additive(u, v):
    F = parse_linearized("2x^[3]+x^[1]+x", E35)
    a, b = E35.from_int(u), E35.from_int(v)
    assert evaluate(F, a + b) == evaluate(F, a) + evaluate(F, b)


@given(st.integers(0, 242), st.integers(0, 2))
def test_evaluate_homogeneous(u, c):
    F = parse_linearized("2x^[3]+x^[1]+x", E35)
    a = E35.from_int(u)
    s = E35.base.embed_int(c)
    assert evaluate(F, a.scale(s)) == evaluate(F, a).scale(s)


@pytest.mark.parametrize(
    "q,n,slots,rounds",
    [
        (3, 5, 5, 10),
        # the Frobenius twist of compose runs in float64 at p = 65521
        (65521, 3, 3, 10),
        # wide enough that the row products take mulmod_rows; F and G sit in
        # their low slots so that evaluation needs few Frobenius powers
        (3, 125, 3, 2),
    ],
)
def test_evaluate_matches_composition(q, n, slots, rounds):
    E = extension_field(q, n)
    rng = random.Random(11)

    def draw():
        coeffs = [E.from_int(rng.randrange(E.order)) for _ in range(slots)]
        return LinearizedPoly(E, tuple(coeffs) + (E.zero(),) * (n - slots))

    for _ in range(rounds):
        F, G = draw(), draw()
        H = compose(F, G)
        for v in (1, 17, 100, E.order - 1):
            a = E.from_int(v)
            assert evaluate(H, a) == evaluate(F, evaluate(G, a))


def test_compose_identity_neutral():
    rng = random.Random(5)
    F = LinearizedPoly(E35, tuple(E35.from_int(rng.randrange(243)) for _ in range(5)))
    ident = identity(E35)
    assert compose(F, ident) == F
    assert compose(ident, F) == F


def test_compose_associative():
    rng = random.Random(3)
    polys = [
        LinearizedPoly(E35, tuple(E35.from_int(rng.randrange(243)) for _ in range(5)))
        for _ in range(3)
    ]
    F, G, H = polys
    assert compose(compose(F, G), H) == compose(F, compose(G, H))


def test_compose_noncommutative_witness():
    z = extension_field(2, 3).gen()
    E = z.spec
    F = LinearizedPoly.monomial(E, z, 1)
    G = LinearizedPoly.monomial(E, z * z, 0)
    assert compose(F, G) != compose(G, F)


def test_base_coeff_compose_commutes():
    rng = random.Random(9)
    F = rand_base_poly(rng, E35)
    G = rand_base_poly(rng, E35)
    assert compose(F, G) == compose(G, F)


@settings(max_examples=30)
@given(
    st.lists(st.integers(0, 2), min_size=5, max_size=5),
    st.lists(st.integers(0, 2), min_size=5, max_size=5),
)
def test_symbolic_mul_is_ring_mul(cf, cg):
    # composition of base-coefficient polynomials mirrors ring multiplication
    f = R35.element([R35.base.embed_int(c) for c in cf])
    g = R35.element([R35.base.embed_int(c) for c in cg])
    F = linearized_associate(f, E35)
    G = linearized_associate(g, E35)
    assert conventional_associate(compose(F, G)) == ring_mul(f, g)


def test_ordinary_divisibility_iff_symbolic():
    # f | g in F_q[x] exactly when a symbolic cofactor H with F o H = G exists
    from linperm import Poly

    R25 = RingSpec(base_field(3), 25)
    E25 = extension_field(3, 25)
    rng = random.Random(21)
    for _ in range(10):
        f = Poly(
            R25.base, tuple(R25.base.embed_int(rng.randrange(3)).coeffs[0] for _ in range(6))
        )
        h = Poly(
            R25.base, tuple(R25.base.embed_int(rng.randrange(3)).coeffs[0] for _ in range(7))
        )
        if f.is_zero() or h.is_zero():
            continue
        g = f * h
        if g.degree >= 25:
            gq, gr = divmod(g, R25.modulus())
            g = gr
        F = linearized_associate(R25.from_poly(f), E25)
        H = linearized_associate(R25.from_poly(h), E25)
        G = linearized_associate(R25.from_poly(g % R25.modulus() if g.degree >= 25 else g), E25)
        assert compose(F, H) == G


# --- permutation tests -------------------------------------------------------


def test_permutation_tests_agree_exhaustive_f2_3():
    import itertools

    E = extension_field(2, 3)
    R = RingSpec(base_field(2), 3)
    basis = primitive_idempotents(R)
    for bits in itertools.product((0, 1), repeat=3):
        F = LinearizedPoly(E, tuple(E.embed_int(b) for b in bits))
        a = is_permutation(F, basis)
        b = is_permutation_gcd(F)
        c = is_permutation_rank(F)
        assert a == b == c


def test_frobenius_plus_identity_not_permutation():
    E = extension_field(2, 3)
    F = parse_linearized("x^[1]+x", E)
    assert not is_permutation_rank(F)
    assert coefficient_sum_reject(F)


def test_rank_test_at_p_65521():
    # the Frobenius tables are uint16, so at p = 65521 any product of a table
    # entry left in uint16 would wrap; both paths of the rank matrix run here
    E = extension_field(65521, 3)
    p, width = E.base.p, E.base.k * E.n
    rng = random.Random(65521)
    top = [p - 1, p - 2, p // 2 + 1]

    def base_poly(c):
        return LinearizedPoly(E, tuple(E.embed_int(x) for x in c))

    for i, c in enumerate(top):
        monomial = base_poly([0] * i + [c] + [0] * (2 - i))
        assert is_permutation_rank(monomial) and is_permutation_gcd(monomial)
    accepted = 0
    for _ in range(20):
        c = [rng.choice(top + [rng.randrange(1, p)]) for _ in range(2)]
        zero_sum = base_poly(c + [-sum(c) % p])
        assert not is_permutation_rank(zero_sum) and not is_permutation_gcd(zero_sum)
        F = base_poly(c + [rng.choice(top)])
        verdict = is_permutation_gcd(F)
        assert is_permutation_rank(F) == verdict
        accepted += verdict
    assert accepted > 0

    def by_images(F):
        images = evaluate_many(F, np.eye(width, dtype=np.int64))
        return rank_mod(images, p) == width

    # outside F_q every slot of c_0 x + c_1 x^[1] + c_2 x^[2] holds a random
    # element, and c_0 = -(c_1 a^q + c_2 a^(q^2)) / a makes it vanish at a
    verdicts = []
    for _ in range(12):
        a, c1, c2 = (E.from_int(rng.randrange(1, E.order)) for _ in range(3))
        c0 = -(c1 * a**p + c2 * a ** (p * p)) * a.inverse()
        for F in (LinearizedPoly(E, (c0, c1, c2)), LinearizedPoly(E, (a, c1, c2))):
            verdicts.append(is_permutation_rank(F))
            assert verdicts[-1] == by_images(F)
    assert True in verdicts and False in verdicts


def _rank_matrix_dtypes(monkeypatch):
    """The dtype of every matrix the rank test hands to rank_mod, in order."""
    from linperm import _linalg

    seen, real = [], _linalg.rank_mod

    def spy(M, p):
        seen.append(M.dtype)
        return real(M, p)

    monkeypatch.setattr(_linalg, "rank_mod", spy)
    return seen


@pytest.mark.parametrize(
    "q, n, dtype",
    [
        (3, 125, np.int16),  # n*p^2 = 1,125
        (251, 5, np.int32),  # n*p^2 = 315,005
        (257, 2, np.int32),  # c*Frob^i entries reach 256^2, past uint16
        (65521, 3, np.int64),  # n*p^2 is about 1.3e10
    ],
)
def test_narrow_rank_matrix_agrees_with_gcd(monkeypatch, q, n, dtype):
    """On base coefficients the rank test, summed in the narrowest dtype that
    holds n*k*p^2, gives the verdict of the independent gcd test, for units
    and for zero-sum coefficient vectors (x - 1 divides those)."""
    E = extension_field(q, n)
    p = E.base.p
    rng = random.Random(q * n)
    seen = _rank_matrix_dtypes(monkeypatch)
    verdicts = []
    for _ in range(8):
        c = [rng.choice([0, 1, p - 1, rng.randrange(p)]) for _ in range(n - 1)]
        for last in (rng.choice([1, p - 1, rng.randrange(p)]), -sum(c) % p):
            F = LinearizedPoly(E, tuple(E.embed_int(x) for x in c + [last]))
            if F.is_zero():
                continue
            verdicts.append(is_permutation_rank(F))
            assert verdicts[-1] == is_permutation_gcd(F)
    assert True in verdicts and False in verdicts
    assert set(seen) == {np.dtype(dtype)}


@pytest.mark.parametrize(
    "q, n, dtype",
    [
        (3, 5, np.int16),  # n*k*n*p^2 = 225
        (4, 3, np.int16),  # 72
        (11, 3, np.int16),  # 1,089
        (61, 3, np.int32),  # 33,489, while n*k*p^2 = 11,163 fits int16
        (257, 2, np.int32),  # 264,196, and c*Frob^i would wrap in uint16
    ],
)
def test_narrow_rank_matrix_agrees_with_bruteforce(monkeypatch, q, n, dtype):
    """Coefficients outside F_q: the rank test against the brute-force
    bijection oracle, which evaluates through its own Frobenius powers."""
    E = extension_field(q, n)
    rng = random.Random(q + n)
    seen = _rank_matrix_dtypes(monkeypatch)
    verdicts = []
    for _ in range(6):
        a, c1 = (E.from_int(rng.randrange(1, E.order)) for _ in range(2))
        # c0 = -c1 a^(q-1) makes c0 x + c1 x^[1] vanish at a
        c0 = -(c1 * a ** (E.q - 1))
        rest = (E.zero(),) * (n - 2)
        for F in (LinearizedPoly(E, (c0, c1) + rest), LinearizedPoly(E, (a, c1) + rest)):
            verdicts.append(is_permutation_rank(F))
            assert verdicts[-1] == is_bijection_bruteforce(F)
    assert True in verdicts and False in verdicts
    assert set(seen) == {np.dtype(dtype)}


@pytest.mark.parametrize("q, n", [(2, 5), (3, 4), (5, 3), (4, 3), (8, 3), (9, 2)])
def test_rank_test_with_unit_coefficients_agrees_with_bruteforce(q, n):
    """Coefficients drawn from 0, 1, p - 1 and the rest of F_q, where a 1
    adds Frob^i and a p - 1 subtracts it (at p = 2, 1 = p - 1), some with a
    zero coefficient sum, and some with one coefficient outside F_q: the
    rank test against the brute-force bijection oracle."""
    E = extension_field(q, n)
    base = E.base
    units = (base.one(), base.embed_int(base.p - 1))
    others = [c for c in base.elements() if not c.is_zero() and c not in units]
    outside = [a for a in (E.from_int(v) for v in range(E.order)) if not a.in_base_field()]
    rng = random.Random(q * n)
    verdicts, signed, wide = [], 0, 0
    for trial in range(40):
        # 0, 1, p - 1 or another element; F_2 and F_3 have no other one
        cs = [rng.choice([base.zero(), *units, rng.choice(others or units)]) for _ in range(n)]
        if trial % 3 == 0:  # x - 1 divides f: not a permutation
            cs[-1] = -sum(cs[:-1], base.zero())
        signed += sum(c in units for c in cs)
        coeffs = [E.embed(c) for c in cs]
        if trial % 4 == 1:
            coeffs[rng.randrange(n)] = rng.choice(outside)
            wide += 1
        F = LinearizedPoly(E, tuple(coeffs))
        verdicts.append(is_permutation_rank(F))
        assert verdicts[-1] == is_bijection_bruteforce(F), format_linearized(F)
    assert True in verdicts and False in verdicts and signed and wide


def test_coefficient_sum_reject_implies_not_permutation():
    rng = random.Random(13)
    basis = basis35()
    rejected = 0
    for _ in range(100):
        F = rand_base_poly(rng, E35)
        if coefficient_sum_reject(F):
            rejected += 1
            assert not is_permutation(F, basis)
    assert rejected > 0


def test_table1_entries_permute():
    E125 = extension_field(3, 125)
    basis = primitive_idempotents(RingSpec(base_field(3), 125))
    for txt in ("x^[25]+x", "2x^[124]+x^[25]+x"):
        F = parse_linearized(txt, E125)
        assert is_permutation(F, basis)
        assert not coefficient_sum_reject(F)


# --- inverses ----------------------------------------------------------------


def test_inverse_of_identity():
    basis = basis35()
    assert compositional_inverse(identity(E35), basis) == identity(E35)


def test_inverse_of_scalar():
    basis = basis35()
    F = parse_linearized("2x", E35)
    assert compositional_inverse(F, basis) == F  # 2*2 = 1 mod 3


def test_inverse_random_roundtrip():
    rng = random.Random(17)
    basis = basis35()
    ident = identity(E35)
    done = 0
    while done < 20:
        F = rand_base_poly(rng, E35)
        if not is_permutation(F, basis):
            continue
        Finv = compositional_inverse(F, basis)
        assert compose(F, Finv) == ident
        assert compose(Finv, F) == ident
        for v in (3, 99, 200):
            a = E35.from_int(v)
            assert evaluate(Finv, evaluate(F, a)) == a
        done += 1


def test_inverse_rejects_non_permutation():
    basis = basis35()
    F = parse_linearized("x^[2]+x^[1]+x", E35)
    with pytest.raises(NotAPermutation):
        compositional_inverse(F, basis)


@pytest.mark.parametrize("q, n", [(3, 25), (11, 9), (2, 255)])
def test_inverse_refuses_exactly_the_non_permutations(q, n):
    ext = extension_field(q, n)
    basis = primitive_idempotents(RingSpec(base_field(q), n))
    rng = random.Random(q * 1000 + n)
    seen = set()
    for trial in range(12):
        f = conventional_associate(rand_base_poly(rng, ext))
        if trial % 2:
            # a multiple of some factor f_i, so that f*e_i = 0
            factor = rng.choice(basis.components).factor
            f = ring_mul(f, f.spec.from_poly(factor))
        F = linearized_associate(f, ext)
        perm = is_permutation(F, basis)
        seen.add(perm)
        if perm:
            Finv = compositional_inverse(F, basis)
            assert ring_mul(conventional_associate(Finv), f) == f.spec.one()
        else:
            with pytest.raises(NotAPermutation):
                compositional_inverse(F, basis)
    assert seen == {True, False}


def test_decomposition_refuses_another_ring():
    E25 = extension_field(3, 25)
    basis25 = primitive_idempotents(RingSpec(base_field(3), 25))
    with pytest.raises(SpecMismatch):
        is_permutation(identity(E35), basis25)
    with pytest.raises(SpecMismatch):
        compositional_inverse(identity(E35), basis25)
    with pytest.raises(SpecMismatch):
        reconstruct(project(R35.one(), basis35()), basis25)
    with pytest.raises(SpecMismatch):
        linearized_associate(R35.one(), E25)
    with pytest.raises(SpecMismatch):
        sign_vector_involutions(basis35(), E25)


NOT_A_POLY = {
    "is_permutation": lambda: is_permutation(3, basis35()),
    "compositional_inverse": lambda: compositional_inverse(3, basis35()),
    "is_permutation_gcd": lambda: is_permutation_gcd(3),
    "is_permutation_rank": lambda: is_permutation_rank(3),
    "is_involution": lambda: is_involution(3),
}


@pytest.mark.parametrize("case", list(NOT_A_POLY))
def test_permutation_tests_refuse_an_int(case):
    with pytest.raises(SpecMismatch, match="^expected a LinearizedPoly, got int$"):
        NOT_A_POLY[case]()


def test_sum_and_difference_refuse_a_foreign_operand():
    # an element or an int is not broadcast over the coefficients
    F = identity(E35)
    for other in (E35.one(), E35.gen(), 1, identity(extension_field(3, 4))):
        with pytest.raises(SpecMismatch):
            F + other
        with pytest.raises(SpecMismatch):
            F - other


def test_table2_row():
    E25 = extension_field(3, 25)
    basis = primitive_idempotents(RingSpec(base_field(3), 25))
    F = parse_linearized(
        "2x^[21]+2x^[20]+2x^[15]+x^[11]+2x^[10]+x^[6]+2x^[5]+2x^[1]+2x", E25
    )
    want = parse_linearized("2x^[20]+2x^[15]+x^[14]+2x^[10]+2x^[5]+2x^[4]+2x", E25)
    assert compositional_inverse(F, basis) == want


# --- involutions -------------------------------------------------------------


def test_sign_vector_involutions_tiny_rings():
    for q, n in [(3, 2), (3, 4), (5, 2)]:
        R = RingSpec(base_field(q), n)
        basis = primitive_idempotents(R)
        invs = sign_vector_involutions(basis)
        assert len(invs) == 2**basis.t
        assert all(is_involution(F) for F in invs)
        # they exhaust the square roots of unity in the ring
        ring_roots = set(sqrt_unity_bruteforce(R))
        assert {conventional_associate(F) for F in invs} == ring_roots


def test_sign_vector_involutions_default_spec():
    # without a spec the involutions live in the cached extension_field(q, n, 0)
    for q, n in [(3, 2), (5, 2), (3, 5)]:
        basis = primitive_idempotents(RingSpec(base_field(q), n))
        invs = sign_vector_involutions(basis)
        assert all(F.spec is extension_field(q, n, 0) for F in invs)
    with pytest.warns(UserWarning):
        (I,) = sign_vector_involutions(primitive_idempotents(RingSpec(base_field(2), 3)))
    assert I.spec is extension_field(2, 3, 0)


def test_char2_collapse():
    basis = primitive_idempotents(RingSpec(base_field(2), 3))
    with pytest.warns(UserWarning):
        invs = sign_vector_involutions(basis)
    assert len(invs) == 1
    assert invs[0] == identity(invs[0].spec)


def test_involution_table3_row():
    E9 = extension_field(11, 9)
    F = parse_linearized("8x^[6]+8x^[3]+7x", E9)
    assert is_involution(F)
    assert not is_involution(parse_linearized("2x", E9))


def test_nontrivial_involution_with_ext_coeffs():
    # is_involution must work beyond base coefficients too
    E = extension_field(3, 2)
    z = E.gen()
    F = LinearizedPoly.monomial(E, z, 1)
    assert is_involution(F) == (compose(F, F) == identity(E))


# --- binomials and p^m conditions --------------------------------------------


def test_binomial_criterion():
    F3b = base_field(3)
    assert binomial_is_permutation(F3b.embed_int(1), F3b.embed_int(1), 0, 1)
    assert not binomial_is_permutation(F3b.embed_int(1), F3b.embed_int(2), 0, 1)
    with pytest.raises(ZeroCoefficient):
        binomial_is_permutation(F3b.zero(), F3b.one(), 0, 1)
    with pytest.raises(BadInput):
        binomial_is_permutation(F3b.one(), F3b.one(), 2, 1)


def test_binomial_char2_always_fails():
    F8 = base_field(8)
    for v in range(1, 8):
        a = F8.from_int(v)
        assert not binomial_is_permutation(a, a, 1, 3)


def test_binomial_agrees_with_gcd():
    E9 = extension_field(11, 9)
    b = base_field(11).embed_int(8)
    F = parse_linearized("8x^[6]+8x^[3]", E9)
    assert binomial_is_permutation(b, b, 3, 6) == is_permutation_gcd(F)


def test_pm_conditions_example2():
    E125 = extension_field(3, 125)
    good = [
        "x^[64]+x^[63]+x^[62]+2x",
        "2x^[64]+2x^[63]+2x^[62]+2x",
        "2x^[64]+x^[63]+x",
        "x^[64]+2x^[63]+x",
    ]
    basis = primitive_idempotents(RingSpec(base_field(3), 125))
    for txt in good:
        F = parse_linearized(txt, E125)
        assert pm_sufficient_conditions(F, 5, 3)
        assert is_permutation(F, basis)
    # violations: zero f_0 breaks rows 3 and 4; zero total sum breaks row 1
    for txt in [
        "x^[64]+x^[63]+x^[62]",
        "x^[64]+2x^[63]+2x^[62]+x",
        "2x^[64]+2x^[63]+x^[62]+x",
        "2x^[64]+x^[63]+2x^[62]+x",
    ]:
        assert not pm_sufficient_conditions(parse_linearized(txt, E125), 5, 3)


def test_pm_conditions_monomial():
    E125 = extension_field(3, 125)
    assert pm_sufficient_conditions(parse_linearized("2x", E125), 5, 3)


def test_pm_conditions_guard():
    from linperm.errors import ConditionNotMet

    E = extension_field(7, 9)
    F = identity(E)
    with pytest.raises(ConditionNotMet):
        pm_sufficient_conditions(F, 3, 2)
    with pytest.raises(BadInput):
        pm_sufficient_conditions(identity(E35), 5, 3)


# (q, p, m): n = p^m with primitive closed-form idempotents; over F_8, F_9
# and F_27 the conditions read k > 1 coordinates
PM_FIELDS = [(3, 5, 2), (11, 2, 2), (8, 3, 1), (9, 2, 1), (27, 2, 2)]


@settings(max_examples=40)
@given(st.sampled_from(PM_FIELDS), st.data())
def test_pm_conditions_are_constant_terms(field, data):
    q, p, m = field
    E = extension_field(q, p**m)
    base, k = E.base, E.base.k
    values = data.draw(st.lists(st.integers(0, q - 1), min_size=E.n, max_size=E.n))
    F = LinearizedPoly(E, tuple(E.embed(base.from_int(v)) for v in values))
    # condition i is the constant term of f * e_i (condition 0 that of
    # p^m f * e_0, the coefficient sum F(1))
    f = conventional_associate(F)
    consts = [ring_mul(f, e).coords[:k] for e in closed_form_pm(f.spec, p, m).idempotents]
    assert pm_sufficient_conditions(F, p, m) == all(any(c) for c in consts)
    assert coefficient_sum_reject(F) == evaluate(F, E.one()).is_zero()
    # A-complete: the conditions hold for F + lambda*x, every lambda in A
    holds = {}
    for lam in base.elements():
        G = F + LinearizedPoly.monomial(E, E.embed(lam), 0)
        holds[lam] = pm_sufficient_conditions(G, p, m)
        want = holds[base.zero()] and holds[lam]
        assert a_complete_sufficient_pm(F, [base.zero(), lam], p, m) == want
    assert a_complete_sufficient_pm(F, list(holds), p, m) == all(holds.values())


def test_pm_conditions_refuse_bad_shift_sets():
    E25 = extension_field(3, 25)
    F = identity(E25)
    with pytest.raises(BadInput, match="A inside F_q"):
        a_complete_sufficient_pm(F, [0, E25.gen()], 5, 2)
    with pytest.raises(ZeroNotInA):
        a_complete_sufficient_pm(F, [1, 2], 5, 2)


# --- A-complete --------------------------------------------------------------


def test_a_complete_monomial_f8():
    E = extension_field(8, 11)
    basis = primitive_idempotents(RingSpec(base_field(8), 11))
    ft = base_field(8).from_int(5)
    F = LinearizedPoly.monomial(E, E.embed(ft), 7)
    A = [lam for lam in base_field(8).elements() if lam != ft]
    assert a_complete_check(F, A, basis)
    assert not a_complete_check(F, list(base_field(8).elements()), basis)
    # the idempotent criterion and the rank fallback (no basis) agree
    everything = list(base_field(8).elements())
    want = [True] * 5 + [False] + [True] * 2
    assert [lam == ft for lam in everything] == [not ok for ok in want]
    assert list(a_complete_verdicts(F, everything, basis)) == want
    assert list(a_complete_verdicts(F, everything)) == want


def test_a_complete_rank_fallback_outside_base_field():
    # lambda = 3, 5 lie in F_8 \ F_2, so F + lambda*x leaves F_2: rank test
    E = extension_field(2, 3)
    basis = primitive_idempotents(RingSpec(base_field(2), 3))
    F = parse_linearized("x^[1]", E)
    lams = [E.from_int(v) for v in (0, 3, 5)]
    want = [is_bijection_bruteforce(F + LinearizedPoly.monomial(E, lam, 0)) for lam in lams]
    assert want == [True, False, False]
    assert list(a_complete_verdicts(F, lams, basis)) == want


def test_a_complete_requires_zero():
    with pytest.raises(ZeroNotInA):
        a_complete_check(identity(E35), [E35.one()], basis35())


def test_a_complete_sufficient_pm():
    E125 = extension_field(3, 125)
    F = parse_linearized("x^[64]+x^[63]+x^[62]+2x", E125)
    base = base_field(3)
    assert a_complete_sufficient_pm(F, [base.zero()], 5, 3)
    # sufficiency: fast-path true implies the exact test agrees
    basis = primitive_idempotents(RingSpec(base, 125))
    for lam_set in ([0], [0, 1], [0, 2], [0, 1, 2]):
        lams = [base.embed_int(v) for v in lam_set]
        if a_complete_sufficient_pm(F, lams, 5, 3):
            assert a_complete_check(F, lams, basis)


# --- text format -------------------------------------------------------------


def test_format_identity():
    assert format_linearized(identity(E35)) == "x"


def test_format_zero():
    Z = LinearizedPoly(E35, tuple([E35.zero()] * 5))
    assert format_linearized(Z) == "0"
    assert parse_linearized("0", E35) == Z


@pytest.mark.parametrize("text", ["0", "x", "2x^[4]+x^[1]", "[0,1,0,0,0]*x^[3]+2x"])
def test_str_is_format(text):
    F = parse_linearized(text, E35)
    assert str(F) == format_linearized(F)


@pytest.mark.parametrize("text", ["", " ", "{}", "{ }"])
def test_parse_refuses_blank_text(text):
    with pytest.raises(BadInput, match="^empty polynomial string$"):
        parse_linearized(text, E35)


def _ext_coeffs(E):
    """Coefficients in F_q, or anywhere in F_{q^n} (printed in bracket form)."""
    base_coeff = st.integers(0, E.q - 1).map(lambda v: E.embed(E.base.from_int(v)))
    ext_coeff = st.integers(0, E.order - 1).map(E.from_int)
    return st.lists(st.one_of(base_coeff, ext_coeff), min_size=E.n, max_size=E.n)


@given(st.data())
def test_format_parse_roundtrip_ext(data):
    for q, n in ((3, 5), (4, 3)):
        E = extension_field(q, n)
        F = LinearizedPoly(E, tuple(data.draw(_ext_coeffs(E))))
        assert parse_linearized(format_linearized(F), E) == F


def test_parse_tolerates_compact_style():
    a = parse_linearized("2x^{[21]}+x^{[6]}+2x", extension_field(3, 25))
    b = parse_linearized("2*x^[21] + x^[6] + 2*x", extension_field(3, 25))
    assert a == b


def test_parse_rejects_garbage():
    with pytest.raises(BadInput):
        parse_linearized("x^[99]", E35)
    with pytest.raises(BadInput):
        parse_linearized("y+1", E35)
    # a bracket coefficient must hold exactly n*k = 5 integers
    for bad in ("[1,2,0]*x", "[1,2,0,0,0,1]*x", "[1,a,0,0,0]*x", "[]*x"):
        with pytest.raises(BadInput):
            parse_linearized(bad, E35)
    # every coordinate lies in [0, p), in the bracket and the comma form
    for bad in ("[1,3,0,0,0]*x", "[1,-1,0,0,0]*x", "3,0*x"):
        with pytest.raises(BadInput):
            parse_linearized(bad, E35 if bad[0] == "[" else extension_field(9, 2))
    with pytest.raises(BadInput):
        parse_linearized("5,0,0*x", extension_field(8, 3))
    # a sign needs a term on each side
    for bad in ("x--x", "x+-x", "x-", "-", "+x"):
        with pytest.raises(BadInput):
            parse_linearized(bad, E35)


PARSE_FIELDS = [(3, 125), (2, 255), (8, 11), (4, 3)]


@st.composite
def signed_terms(draw, q, n):
    """(text, coords): a sum of signed terms in every written style, and the
    coordinates it names, summed mod p here from the drawn digits alone.

    Exponents come from a small pool, so they repeat, and some terms are
    followed by their own negation, so they cancel."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    k = 1
    while p**k < q:
        k += 1
    width = k * n
    want = np.zeros((n, width), dtype=np.int64)
    pool = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
    pieces = []
    for t in range(draw(st.integers(1, 12))):
        exp = draw(st.sampled_from(pool))
        kind = draw(st.sampled_from(["unit", "int", "comma", "bracket"]))
        if kind == "unit":
            digits, coeff = [1], ""
        elif kind == "int":
            v = draw(st.integers(0, q - 1))
            digits = [v // p**j % p for j in range(k)]
            coeff = str(v)
        elif kind == "comma":
            digits = draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k))
            coeff = ",".join(map(str, digits))
        else:
            digits = draw(st.lists(st.integers(0, p - 1), min_size=width, max_size=width))
            coeff = "[" + ",".join(map(str, digits)) + "]"
        if coeff:
            coeff += draw(st.sampled_from(["*", " * ", ""]))
        var = "x" if exp == 0 and draw(st.booleans()) else (
            draw(st.sampled_from(["x^[{}]", "x^{{[{}]}}", "x^{{[ {} ]}}"])).format(exp)
        )
        term = coeff + var
        signs = [draw(st.sampled_from([1, -1]))]
        if draw(st.booleans()):
            signs.append(-signs[0])  # the same term again, cancelling
        for sign in signs:
            if pieces or sign < 0:
                pieces.append(draw(st.sampled_from(["+", " + ", " +"])) if sign > 0 else
                              draw(st.sampled_from(["-", " - ", "- "])))
            pieces.append(term)
            want[exp, : len(digits)] += sign * np.array(digits)
    return "".join(pieces), want % p


@pytest.mark.parametrize("q, n", PARSE_FIELDS)
@settings(max_examples=40)
@given(data=st.data())
def test_parse_sums_signed_terms(q, n, data):
    E = extension_field(q, n)
    text, want = data.draw(signed_terms(q, n))
    F = parse_linearized(text, E)
    assert F.coords.dtype == np.int64 and not F.coords.flags.writeable
    assert np.array_equal(F.coords, want)
    assert parse_linearized(format_linearized(F), E) == F


@pytest.mark.parametrize("q, n", [(3, 5), (4, 3)])
def test_parse_subtraction(q, n):
    E = extension_field(q, n)
    assert parse_linearized("x^[1]-x", E) == parse_linearized("x^[1]", E) - parse_linearized("x", E)
    assert parse_linearized("-x", E) == -parse_linearized("x", E)
    assert parse_linearized("-2x^[2]+x-x", E) == -parse_linearized("2x^[2]", E)
