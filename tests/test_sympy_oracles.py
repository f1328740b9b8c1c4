"""The modulus search and the factorization of x^n - 1 over F_p (k = 1),
against ``sympy.polys.galoistools``, a GF(p) implementation independent of
``_polys``.

sympy is imported inside the helpers alone, so collecting this module
loads nothing. The helpers also serve CI's slow cases, which run them
outside pytest::

    PYTHONPATH=src:tests python -c "import test_sympy_oracles as t; t.check_survivors(5, 311, 0)"
"""

import random

import pytest

from linperm import FieldSpec, RingSpec, base_field, factor_xn_minus_1, fields
from linperm import _polys
from linperm.fields import find_irreducible


def _sympy_irreducible(flat: tuple, p: int, rabin: bool = False) -> bool:
    """sympy's verdict on the monic polynomial with coefficients ``flat``, low
    to high: by Ben-Or's test, which stops at the first factor it finds, or
    with ``rabin`` by Rabin's, which takes about half as long as Ben-Or's on
    an irreducible."""
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_irred_p_ben_or, gf_irred_p_rabin

    return (gf_irred_p_rabin if rabin else gf_irred_p_ben_or)(list(reversed(flat)), p, ZZ)


def check_survivors(p: int, degree: int, seed: int) -> int:
    """Run ``find_irreducible(FieldSpec(p), degree, seed)`` and record every
    candidate that passes stage 1, by wrapping ``_polys._frobenius_q``, which
    stage 2 calls once per candidate. The search rejects each survivor but
    the last, which it returns; sympy must agree on every one. Returns the
    number of survivors."""
    seen = []
    frobenius_q = _polys._frobenius_q

    def recording(field, f):
        seen.append(tuple(f))
        return frobenius_q(field, f)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_polys, "_frobenius_q", recording)
        found = find_irreducible(FieldSpec(p), degree, seed)
    assert seen and seen[-1] == found
    for f in seen[:-1]:
        assert not _sympy_irreducible(f, p), (p, degree, seed, f)
    assert _sympy_irreducible(found, p, rabin=True), (p, degree, seed, found)
    return len(seen)


def check_every_draw(p: int, degree: int, seed: int) -> int:
    """Replay the search's draws with its own generator and check the verdict
    of ``pis_irreducible`` on every candidate, stage-1 rejections included,
    up to the first that sympy finds irreducible, which must be the one
    ``find_irreducible`` returns. Returns the number of candidates."""
    rng = random.Random(f"{seed}:{p}:1:{degree}")
    field = FieldSpec(p)
    count = 0
    while True:
        f = tuple(fields._draws(rng, p, degree).tolist()) + (1,)  # k = 1: a draw is its coefficient
        count += 1
        irreducible = _sympy_irreducible(f, p)
        assert _polys.pis_irreducible(field, f) == irreducible, (p, degree, seed, f)
        if irreducible:
            assert find_irreducible(field, degree, seed) == f
            return count


def check_factors(q: int, n: int) -> int:
    """Every factor ``factor_xn_minus_1`` gives over the prime field F_q is
    irreducible by sympy, and together they are the factors ``gf_factor_sqf``
    finds in x^n - 1, each once. Returns the number of factors."""
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_factor_sqf

    factors = [f.coords for _, f in factor_xn_minus_1(RingSpec(base_field(q), n))]
    assert all(_sympy_irreducible(f, q, rabin=True) for f in factors)
    lead, expected = gf_factor_sqf([1] + [0] * (n - 1) + [q - 1], q, ZZ)
    assert lead == 1
    mine = sorted(tuple(reversed(f)) for f in factors)
    assert mine == sorted(tuple(int(c) for c in g) for g in expected)
    return len(factors)


def test_survivors_at_3_125():
    assert check_survivors(3, 125, 0) == 7


# prime and composite degrees from 2 to 60, several seeds, over each p
SURVIVOR_CASES = [
    (p, d, seed)
    for p, degrees in (
        (2, (2, 9, 16, 31, 44, 60)),
        (3, (3, 10, 17, 28, 37, 53)),
        (5, (2, 6, 15, 23, 40, 47)),
        (7, (4, 11, 19, 24, 35, 59)),
        (11, (5, 8, 13, 22, 30, 41)),
    )
    for seed, d in enumerate(degrees)
]


@pytest.mark.parametrize("p, degree, seed", SURVIVOR_CASES)
def test_survivors_agree_with_sympy(p, degree, seed):
    check_survivors(p, degree, seed)


@pytest.mark.parametrize(
    "p, degree, seed",
    [(2, 2, 0), (2, 7, 3), (2, 12, 1), (3, 5, 2), (3, 12, 0), (5, 4, 1), (5, 9, 4),
     (7, 6, 0), (7, 11, 2), (11, 3, 5), (11, 10, 1)],
)
def test_every_draw_agrees_with_sympy(p, degree, seed):
    check_every_draw(p, degree, seed)


@pytest.mark.parametrize("q, n", [(3, 125), (2, 255), (11, 9), (3, 25)])
def test_factors_of_xn_minus_1_agree_with_sympy(q, n):
    check_factors(q, n)
