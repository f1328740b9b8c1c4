"""End-to-end acceptance gate.

Each test covers one published-value or equivalence criterion and prints a
single pass/fail line (with the measured wall time) to the real stdout so the
gate is readable even under pytest capture. Timing bounds are checked against
warm caches: the fixtures below pre-build the field specs, idempotent bases
and Frobenius tables shared across criteria, since those are one-time costs
for any longer-running session.
"""

import itertools
import json
import random
import sys
import time
import warnings
from contextlib import contextmanager

import pytest

from linperm import (
    LinearizedPoly,
    RingSpec,
    alpha_shift,
    alpha_shift_power,
    base_field,
    closed_form_pm,
    coefficient_sum_reject,
    compose,
    compositional_inverse,
    conventional_associate,
    cor4_condition,
    cyclic_order,
    discrete_log,
    element_order,
    extension_field,
    half_order_involution,
    identity,
    is_bijection_bruteforce,
    is_involution,
    is_permutation,
    is_permutation_gcd,
    is_permutation_rank,
    norm,
    parse_linearized,
    pm_sufficient_conditions,
    primitive_idempotents,
    ring_mul,
    shifted_inverse,
    sign_vector_involutions,
    sqrt_unity_bruteforce,
)
from linperm.cli import GOLDEN_TABLE1, GOLDEN_TABLE2, GOLDEN_TABLE3, main
from linperm.oracle import involution_check_pointwise


@contextmanager
def criterion(num: int, name: str, budget: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        elapsed = time.perf_counter() - start
        print(f"acceptance {num:02d} {name}: FAIL ({elapsed:.2f}s)", file=sys.__stdout__)
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < budget else "FAIL (over time budget)"
    print(
        f"acceptance {num:02d} {name}: {verdict} ({elapsed:.2f}s, budget {budget:g}s)",
        file=sys.__stdout__,
    )
    assert elapsed < budget, f"{name} took {elapsed:.2f}s, budget {budget}s"


ALL_SPECS = [(2, 3), (3, 2), (3, 5), (5, 2), (3, 25), (11, 9), (8, 11), (3, 125)]


@pytest.fixture(scope="module", autouse=True)
def warm():
    # one-time costs: irreducible moduli, x^n - 1 factorizations, idempotent
    # bases, Frobenius power tables
    for q, n in ALL_SPECS:
        ext = extension_field(q, n)
        basis = primitive_idempotents(RingSpec(base_field(q), n))
        probe = identity(ext) + LinearizedPoly.monomial(ext, ext.one(), n - 1)
        is_permutation_rank(probe)
        del basis


def _geom(ring, terms):
    # expand [(coeff, step, count), ...] into an element of the ring
    base = ring.base
    coeffs = [0] * ring.n
    for c, step, count in terms:
        for i in range(count):
            coeffs[(i * step) % ring.n] = (coeffs[(i * step) % ring.n] + c) % base.q
    return ring.element([base.embed_int(v) for v in coeffs])


def test_c01_closed_form_idempotents_q3_n125(capsys):
    R = RingSpec(base_field(3), 125)
    with criterion(1, "closed-form idempotents, n = 125", 1.0):
        code = main(["idempotents", "--q", "3", "--n", "125", "--closed-form", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        emitted = {d["idempotent"] for d in doc["outputs"]["idempotents"]}
        assert len(emitted) == 4
        # independently expanded expected values (unreduced fraction form)
        from linperm import format_poly

        want = {
            format_poly(R.base, _geom(R, terms).coords)
            for terms in (
                [(2, 1, 125)],
                [(1, 5, 25), (1, 1, 125)],
                [(2, 25, 5), (2, 5, 25)],
                [(1, 1, 1), (1, 25, 5)],
            )
        }
        assert emitted == want
        crt = {format_poly(R.base, c.idempotent.coords) for c in primitive_idempotents(R).components}
        assert crt == emitted


def test_c02_permutation_table_q3_n125():
    E = extension_field(3, 125)
    basis = primitive_idempotents(RingSpec(base_field(3), 125))
    with criterion(2, "18 published permutations, n = 125", 1.0):
        for txt in GOLDEN_TABLE1:
            F = parse_linearized(txt, E)
            assert is_permutation(F, basis), txt
            assert is_permutation_gcd(F), txt
            assert is_permutation_rank(F), txt
        # same support, coefficient sum 0: always rejected
        rejected = 0
        for c0, c1, c2 in itertools.product(range(3), repeat=3):
            if (c0 + c1 + c2) % 3 != 0:
                continue
            coeffs = [E.zero()] * 125
            coeffs[0] = E.embed_int(c0)
            coeffs[25] = E.embed_int(c1)
            coeffs[124] = E.embed_int(c2)
            F = LinearizedPoly(E, tuple(coeffs))
            assert coefficient_sum_reject(F)
            assert not is_permutation(F, basis)
            rejected += 1
        assert rejected == 9


def test_c03_inverse_table_q3_n25():
    E = extension_field(3, 25)
    basis = primitive_idempotents(RingSpec(base_field(3), 25))
    ident = identity(E)
    with criterion(3, "6 published inverse pairs, n = 25", 1.0):
        for f_txt, finv_txt in GOLDEN_TABLE2:
            F = parse_linearized(f_txt, E)
            want = parse_linearized(finv_txt, E)
            assert compose(F, want) == ident, f_txt
            assert compositional_inverse(F, basis) == want, f_txt


def test_c04_involution_table_q11_n9():
    E = extension_field(11, 9)
    basis = primitive_idempotents(RingSpec(base_field(11), 9))
    with criterion(4, "8 published involutions, n = 9", 10.0):
        invs = sign_vector_involutions(basis, E)
        want = {parse_linearized(t, E) for t in GOLDEN_TABLE3}
        assert set(invs) == want
        for F in invs:
            assert is_involution(F)
            assert involution_check_pointwise(F, samples=1000, seed=20240501)


def test_c05_binomial_completeness_q8_n11():
    F8 = base_field(8)
    R = RingSpec(F8, 11)
    E = extension_field(8, 11)
    basis = primitive_idempotents(R)
    with criterion(5, "binomial classification, q = 8, n = 11", 1.0):
        e0 = basis.components[0].idempotent
        assert e0.coords == F8.one().coeffs * 11
        e1 = basis.components[1].idempotent
        assert e1 == R.one() + e0
        checked = 0
        for t in range(11):
            for ft_v in range(1, 8):
                ft = F8.from_int(ft_v)
                for lam_v in range(8):
                    lam = F8.from_int(lam_v)
                    coeffs = [E.zero()] * 11
                    coeffs[t] = E.embed(ft)
                    coeffs[0] = coeffs[0] + E.embed(lam)
                    F = LinearizedPoly(E, tuple(coeffs))
                    assert is_permutation_gcd(F) == (lam != ft)
                    checked += 1
        assert checked == 11 * 7 * 8


def test_c06_oracle_equivalence():
    E8 = extension_field(2, 3)
    b8 = primitive_idempotents(RingSpec(base_field(2), 3))
    E35 = extension_field(3, 5)
    b35 = primitive_idempotents(RingSpec(base_field(3), 5))
    with criterion(6, "four permutation tests agree", 30.0):
        for bits in itertools.product(range(2), repeat=3):
            F = LinearizedPoly(E8, tuple(E8.embed_int(b) for b in bits))
            verdicts = {
                is_permutation(F, b8),
                is_permutation_gcd(F),
                is_permutation_rank(F),
                is_bijection_bruteforce(F),
            }
            assert len(verdicts) == 1, bits
        rng = random.Random(314159)
        for _ in range(500):
            F = LinearizedPoly(
                E35, tuple(E35.embed_int(rng.randrange(3)) for _ in range(5))
            )
            verdicts = {
                is_permutation(F, b35),
                is_permutation_gcd(F),
                is_permutation_rank(F),
                is_bijection_bruteforce(F),
            }
            assert len(verdicts) == 1


def test_c07_order_law_q3_n5():
    E = extension_field(3, 5)
    basis = primitive_idempotents(RingSpec(base_field(3), 5))
    q = 3
    g = base_field(3).embed_int(2)  # generates F_3^*
    rng = random.Random(7)
    while True:
        F = LinearizedPoly(E, tuple(E.embed_int(rng.randrange(3)) for _ in range(5)))
        if is_permutation(F, basis):
            break
    with criterion(7, "shift order law over all of F_243^*", 60.0):
        for v in range(1, 243):
            alpha = E.from_int(v)
            na = norm(alpha)
            # t per the discrete-log phrasing: N(alpha) = g^l, t least > 0
            # with l*t divisible by q - 1
            l = discrete_log(na, g)
            from math import gcd

            t = (q - 1) // gcd(l, q - 1) if l else 1
            assert t == element_order(na)
            k = cyclic_order(F, alpha)
            assert k == 5 * t
            cur = alpha_shift(F, alpha)
            steps = 1
            while cur != F:
                cur = alpha_shift(cur, alpha)
                steps += 1
            assert steps == k


def test_c08_shifted_inverse_and_half_order():
    E = extension_field(3, 5)
    basis = primitive_idempotents(RingSpec(base_field(3), 5))
    alpha = E.embed(base_field(3).embed_int(2))
    ident = identity(E)
    rng = random.Random(271828)

    def random_perm():
        while True:
            F = LinearizedPoly(
                E, tuple(E.embed_int(rng.randrange(3)) for _ in range(5))
            )
            if is_permutation(F, basis):
                return F

    with criterion(8, "shifted inverses and half-order involutions", 60.0):
        for _ in range(20):
            F = random_perm()
            Finv = compositional_inverse(F, basis)
            for t in range(0, 11):
                Ft = alpha_shift_power(F, alpha, t)
                assert compose(Ft, shifted_inverse(Finv, alpha, t)) == ident
        base_invs = sign_vector_involutions(basis, E)
        for _ in range(20):
            G = random_perm()
            Ginv = compositional_inverse(G, basis)
            I = compose(compose(G, rng.choice(base_invs)), Ginv)
            assert is_involution(I)
            assert is_involution(half_order_involution(I, alpha))


def test_c09_idempotent_axioms_all_specs():
    with criterion(9, "idempotent axioms on all eight rings", 5.0):
        for q, n in ALL_SPECS:
            R = RingSpec(base_field(q), n)
            basis = primitive_idempotents(R)
            es = basis.idempotents
            from linperm import cyclotomic_cosets

            assert basis.t == len(cyclotomic_cosets(R))
            total = R.zero()
            for i, e in enumerate(es):
                assert ring_mul(e, e) == e
                total = total + e
                for j in range(i + 1, len(es)):
                    assert ring_mul(e, es[j]) == R.zero()
            assert total == R.one()
            p, m = _as_prime_power(n)
            if p is not None and cor4_condition(p, m, q):
                assert closed_form_pm(R, p, m) == basis


def _as_prime_power(n):
    from sympy import factorint

    f = factorint(n)
    if len(f) == 1:
        [(p, m)] = f.items()
        return p, m
    return None, None


def test_c10_sufficient_conditions_q3_n125():
    E = extension_field(3, 125)
    basis = primitive_idempotents(RingSpec(base_field(3), 125))
    with criterion(10, "coefficient-pattern sufficient conditions", 60.0):
        for txt in (
            "x^[64]+x^[63]+x^[62]+2x",
            "2x^[64]+2x^[63]+2x^[62]+2x",
            "2x^[64]+x^[63]+x",
            "x^[64]+2x^[63]+x",
        ):
            F = parse_linearized(txt, E)
            assert pm_sufficient_conditions(F, 5, 3), txt
            assert is_permutation(F, basis), txt
        for txt in (
            "x^[64]+x^[63]+x^[62]",
            "x^[64]+2x^[63]+2x^[62]+x",
            "2x^[64]+2x^[63]+x^[62]+x",
            "2x^[64]+x^[63]+2x^[62]+x",
        ):
            assert not pm_sufficient_conditions(parse_linearized(txt, E), 5, 3), txt


def test_c11_sqrt_unity_completeness():
    with criterion(11, "square roots of unity match sign vectors", 60.0):
        for q, n in ((3, 2), (5, 2), (3, 4)):
            R = RingSpec(base_field(q), n)
            basis = primitive_idempotents(R)
            roots = set(sqrt_unity_bruteforce(R))
            assert len(roots) == 2**basis.t
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                invs = sign_vector_involutions(basis)
            assert {conventional_associate(F) for F in invs} == roots
