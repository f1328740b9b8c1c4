"""Cyclic shift maps on linearized permutations and their order structure."""

import random
import time

import pytest

from linperm import (
    LinearizedPoly,
    RingSpec,
    alpha_shift,
    alpha_shift_power,
    base_field,
    compose,
    compositional_inverse,
    cyclic_order,
    element_order,
    evaluate,
    extension_field,
    half_order_involution,
    identity,
    is_involution,
    is_maximal_order_element,
    is_permutation_rank,
    norm,
    parse_linearized,
    primitive_idempotents,
    shift_class,
    shifted_inverse,
    sign_vector_involutions,
)
from linperm.errors import (
    BadInput,
    HypothesisViolated,
    NotAPermutation,
    OddOrder,
    SpecMismatch,
    ZeroAlpha,
)

E35 = extension_field(3, 5)
R35 = RingSpec(base_field(3), 5)


def rand_perm(rng, ext, basis):
    from linperm import is_permutation

    q = ext.base.q
    while True:
        F = LinearizedPoly(
            ext,
            tuple(ext.embed(ext.base.from_int(rng.randrange(q))) for _ in range(ext.n)),
        )
        if is_permutation(F, basis):
            return F


def test_shift_slots():
    z = E35.gen()
    F = parse_linearized("2x^[4]+x", E35)
    S = alpha_shift(F, z)
    # slot i+1 carries frobenius(alpha, i) * f_i
    assert S.coeffs[1] == z
    from linperm import frobenius

    assert S.coeffs[0] == frobenius(z, 4).scale(E35.base.embed_int(2))


def test_shift_is_composition_with_ax():
    rng = random.Random(2)
    z = E35.gen()
    A = LinearizedPoly.monomial(E35, z, 1)
    for _ in range(5):
        F = LinearizedPoly(E35, tuple(E35.from_int(rng.randrange(243)) for _ in range(5)))
        assert alpha_shift(F, z) == compose(F, A)


def test_shift_power_n_scales_by_norm():
    rng = random.Random(7)
    for p, n in [(3, 5), (2, 3), (5, 2), (11, 9)]:
        E = extension_field(p, n)
        alpha = E.from_int(rng.randrange(1, E.order))
        F = LinearizedPoly(E, tuple(E.from_int(rng.randrange(E.order)) for _ in range(n)))
        na = norm(alpha)
        want = LinearizedPoly(E, tuple(c.scale(na) for c in F.coeffs))
        chained = F
        for _ in range(n):
            chained = alpha_shift(chained, alpha)
        assert chained == want
        assert alpha_shift_power(F, alpha, n) == want


@pytest.mark.parametrize("t", [0, 1, 5, 11])
def test_shift_power_checks_alpha_at_every_t(t):
    # S_0 is no shift map, for t = 0 as for t >= 1
    F = identity(E35)
    with pytest.raises(ZeroAlpha):
        alpha_shift_power(F, E35.zero(), t)
    with pytest.raises(BadInput):
        alpha_shift_power(F, extension_field(3, 7).one(), t)
    assert alpha_shift_power(F, E35.one(), 0) == F


def test_foreign_operands_are_refused_by_name():
    # an element or an int where a polynomial or an alpha belongs is refused
    # with the library's error, not an AttributeError from inside
    F = identity(E35)
    for call in (
        lambda: compose(F, E35.one()),
        lambda: compose(F, 1),
        lambda: evaluate(F, 1),
    ):
        with pytest.raises(SpecMismatch):
            call()
    for call in (lambda: alpha_shift(F, 2), lambda: cyclic_order(F, 1)):
        with pytest.raises(BadInput, match="^alpha from a different field$"):
            call()
    with pytest.raises(ZeroAlpha):
        alpha_shift(F, extension_field(3, 7).zero())


def test_shift_power_large_t_uses_norm_law():
    # S_alpha^t is N(alpha)^(t // n) * S_alpha^(t mod n), for a non-permutation
    # too; t = 10^9 single shifts would take hours
    t = 10**9
    rng = random.Random(11)
    cases = [(parse_linearized("x^[1]+2x", E35), E35.from_int(7))]
    # F_8's multiplication matrices are not symmetric, so a transposed block fails
    for q, n in [(3, 5), (4, 3), (8, 3), (11, 9)]:
        E = extension_field(q, n)
        alpha = E.from_int(rng.randrange(1, E.order))
        F = LinearizedPoly(E, tuple(E.from_int(rng.randrange(E.order)) for _ in range(n)))
        cases.append((F, alpha))
    assert not is_permutation_rank(cases[0][0])
    for F, alpha in cases:
        E, n = F.spec, F.spec.n
        start = time.perf_counter()
        got = alpha_shift_power(F, alpha, t)
        assert time.perf_counter() - start < 1.0
        want = F
        for _ in range(t % n):
            want = alpha_shift(want, alpha)
        s = norm(alpha) ** (t // n)
        assert got == LinearizedPoly(E, tuple(c.scale(s) for c in want.coeffs))


def test_cyclic_order_matches_orbit():
    basis = primitive_idempotents(R35)
    rng = random.Random(19)
    F = rand_perm(rng, E35, basis)
    for v in range(1, 243):
        alpha = E35.from_int(v)
        t = element_order(norm(alpha))
        k = cyclic_order(F, alpha)
        assert k == 5 * t
        # iterate the orbit explicitly
        cur = alpha_shift(F, alpha)
        steps = 1
        while cur != F:
            cur = alpha_shift(cur, alpha)
            steps += 1
        assert steps == k


def test_cyclic_order_small_fields():
    for p, n in [(2, 3), (5, 2)]:
        E = extension_field(p, n)
        basis = primitive_idempotents(RingSpec(base_field(p), n))
        F = rand_perm(random.Random(4), E, basis)
        for v in range(1, E.order):
            alpha = E.from_int(v)
            assert cyclic_order(F, alpha) == n * element_order(norm(alpha))


def test_maximal_order():
    q = 3
    got = sum(
        1 for v in range(1, 243) if is_maximal_order_element(E35.from_int(v))
    )
    # alpha has maximal shift order iff its norm generates F_q^*
    want = sum(
        1
        for v in range(1, 243)
        if element_order(norm(E35.from_int(v))) == q - 1
    )
    assert got == want > 0


def test_shift_class_closure():
    basis = primitive_idempotents(R35)
    F = rand_perm(random.Random(31), E35, basis)
    alpha = E35.from_int(3)
    cls = shift_class(F, alpha)
    assert len(cls.members) == cyclic_order(F, alpha)
    assert len(set(cls.members)) == len(cls.members)
    assert all(is_permutation_rank(G) for G in cls.members)
    assert F in cls.members


def test_shift_class_refuses_an_orbit_past_the_cap():
    # F_{65521^2}: the norm of alpha is primitive, so the orbit has
    # (q - 1) * n = 131,040 > 10^5 members; the refusal comes before any shift
    E = extension_field(65521, 2)
    alpha = E.from_int(65523)
    assert is_maximal_order_element(alpha)
    with pytest.raises(BadInput, match="orbit of length 131040 exceeds cap 100000"):
        shift_class(identity(E), alpha)


def test_shift_preserves_permutation():
    basis = primitive_idempotents(R35)
    F = rand_perm(random.Random(41), E35, basis)
    G = parse_linearized("x^[1]+2x", E35)  # singular, x - 1 divides x^5 - 1
    z = E35.gen()
    assert is_permutation_rank(alpha_shift(F, z))
    assert not is_permutation_rank(alpha_shift(G, z))


def test_cyclic_order_rejects_non_permutation():
    G = parse_linearized("x^[1]+2x", E35)
    with pytest.raises(NotAPermutation):
        cyclic_order(G, E35.one())


def test_shifted_inverse():
    basis = primitive_idempotents(R35)
    rng = random.Random(53)
    alpha = E35.embed(base_field(3).embed_int(2))  # primitive in F_3^*
    ident = identity(E35)
    for _ in range(10):
        F = rand_perm(rng, E35, basis)
        Finv = compositional_inverse(F, basis)
        for t in range(0, 11):
            Ft = alpha_shift_power(F, alpha, t)
            Gt = shifted_inverse(Finv, alpha, t)
            assert compose(Ft, Gt) == ident
            assert compose(Gt, Ft) == ident


def test_shifted_inverse_hypotheses():
    basis = primitive_idempotents(R35)
    F = rand_perm(random.Random(61), E35, basis)
    Finv = compositional_inverse(F, basis)
    with pytest.raises(HypothesisViolated):
        shifted_inverse(Finv, E35.gen(), 1)  # alpha not in F_q
    with pytest.raises(HypothesisViolated):
        shifted_inverse(Finv, E35.one(), 1)  # 1 is not primitive in F_3^*
    E4 = extension_field(3, 4)
    with pytest.raises(HypothesisViolated):
        # gcd(n, q-1) = 2, the shift bookkeeping breaks down
        shifted_inverse(identity(E4), E4.embed(base_field(3).embed_int(2)), 1)


def test_half_order_involution():
    basis = primitive_idempotents(R35)
    rng = random.Random(71)
    alpha = E35.embed(base_field(3).embed_int(2))
    for inv in sign_vector_involutions(basis)[:4]:
        G = half_order_involution(inv, alpha)
        assert is_involution(G)
    F = rand_perm(rng, E35, basis)
    if not is_involution(F):
        # half-order shift of a non-involution need not be one, but of an
        # involution it always is; sanity check the pointwise version too
        I = sign_vector_involutions(basis)[1]
        G = half_order_involution(I, alpha)
        for v in (1, 50, 123):
            a = E35.from_int(v)
            assert evaluate(G, evaluate(G, a)) == a


def test_half_order_odd_rejected():
    E = extension_field(2, 3)
    basis = primitive_idempotents(RingSpec(base_field(2), 3))
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        I = sign_vector_involutions(basis)[0]
    with pytest.raises(OddOrder):
        half_order_involution(I, E.one())  # (q-1)*n = 3 is odd


def test_base_scalar_shift_is_central():
    # for alpha in F_q^*, the shift map A(x) = alpha x^[1] has base coeffs
    # only in slot 1, and composing with base-coefficient F commutes
    rng = random.Random(83)
    alpha = E35.embed(base_field(3).embed_int(2))
    A = LinearizedPoly.monomial(E35, alpha, 1)
    F = LinearizedPoly(
        E35, tuple(E35.embed_int(rng.randrange(3)) for _ in range(5))
    )
    assert compose(F, A) == compose(A, F)


def test_alpha_shift_makes_no_boxed_products(monkeypatch):
    from functools import lru_cache

    from linperm import fields, shifts

    rng = random.Random(5)
    cases = []
    for q, n in [(3, 5), (4, 3), (11, 9)]:
        E = extension_field(q, n)
        alpha = E.from_int(rng.randrange(1, E.order))
        F = LinearizedPoly(E, tuple(E.from_int(rng.randrange(E.order)) for _ in range(n)))
        want = [alpha_shift_power(F, alpha, t) for t in (1, 2 * n + 1)]
        cases.append((F, alpha, want))
    calls = []
    real_mul, real_frobenius = fields.ExtElement.__mul__, fields.frobenius
    monkeypatch.setattr(
        fields.ExtElement, "__mul__", lambda a, b: calls.append("mul") or real_mul(a, b)
    )
    monkeypatch.setattr(
        fields, "frobenius", lambda a, i: calls.append("frobenius") or real_frobenius(a, i)
    )
    # cold twist rows, so building them is counted too
    monkeypatch.setattr(shifts, "_twist_rows", lru_cache(shifts._twist_rows.__wrapped__))
    for F, alpha, want in cases:
        assert [alpha_shift_power(F, alpha, t) for t in (1, 2 * F.spec.n + 1)] == want
    assert calls == []


def test_shift_class_catches_wrong_twist_rows(monkeypatch):
    from linperm import shifts
    from linperm.errors import InternalError

    basis = primitive_idempotents(R35)
    F = rand_perm(random.Random(31), E35, basis)
    two = base_field(3).embed_int(2)
    # norm(2a) = 2^5 norm(a) = 2 norm(a) in F_3: the wrong rows change the orbit length
    alphas = [E35.from_int(v) for v in range(1, 243)]
    by_norm = {norm(a): a for a in alphas}
    real = shifts._twist_rows
    for alpha in by_norm.values():
        assert shift_class(F, alpha).order == cyclic_order(F, alpha)
        wrong = alpha.scale(two)
        monkeypatch.setattr(shifts, "_twist_rows", lambda spec, a: real(spec, wrong.coords))
        with pytest.raises(InternalError):
            shift_class(F, alpha)
        monkeypatch.setattr(shifts, "_twist_rows", real)
