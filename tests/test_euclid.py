"""The in-place Euclid loop behind ``pgcd`` and ``pegcd``, against long division.

The reference is the textbook remainder sequence, one ``pdivmod`` per step
with the cofactors updated by tuple products; the loop must match it to the
byte, on k = 1 and k > 1 fields alike.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linperm import RingSpec, base_field, ring_inverse
from linperm._polys import (
    _inverse,
    padd,
    pcyclic_mul,
    pdivmod,
    pegcd,
    pgcd,
    pmul,
    pone,
    psub,
    ptrim,
)


def reference_egcd(field, a, b):
    """(g, u, v) by one ``pdivmod`` per step, then made monic."""
    (r0, u0, v0), (r1, u1, v1) = (a, pone(field), ()), (b, (), pone(field))
    while r1:
        q, r = pdivmod(field, r0, r1)
        step = (r, psub(field, u0, pmul(field, q, u1)), psub(field, v0, pmul(field, q, v1)))
        (r0, u0, v0), (r1, u1, v1) = (r1, u1, v1), step
    if not r0:
        return (), u0, v0
    lead_inv = _inverse(field, tuple(r0[-field.k :]))
    return tuple(pmul(field, h, lead_inv) for h in (r0, u0, v0))


def random_poly(rng, field, degree):
    return ptrim(field, tuple(rng.randrange(field.p) for _ in range(field.k * (degree + 1))))


def x_n_minus_1(field, n):
    return psub(field, (0,) * (field.k * n) + pone(field), pone(field))


@st.composite
def poly_pairs(draw, max_deg=40):
    """(field, a, b) over F_2, F_3, F_4, F_8, F_11 or F_49, of degree up to
    max_deg, sometimes with a common factor and sometimes equal."""
    field = base_field(draw(st.sampled_from([2, 3, 4, 8, 11, 49])))
    coords = st.integers(0, field.p - 1)

    def poly(deg):
        slots = draw(st.integers(0, deg + 1))
        size = field.k * slots
        return ptrim(field, tuple(draw(st.lists(coords, min_size=size, max_size=size))))

    a, b = poly(max_deg), poly(max_deg)
    shape = draw(st.sampled_from(["plain", "common", "equal"]))
    if shape == "common":
        c = poly(6)
        a, b = pmul(field, a, c), pmul(field, b, c)
    elif shape == "equal":
        b = a
    return field, a, b


@settings(max_examples=150)
@given(poly_pairs())
def test_euclid_matches_long_division(data):
    field, a, b = data
    want = reference_egcd(field, a, b)
    assert pegcd(field, a, b) == want
    assert pgcd(field, a, b) == want[0]


@pytest.mark.parametrize("q, n", [(3, 125), (2, 255), (5, 311), (8, 11)])
def test_gcd_with_x_n_minus_1_matches_long_division(q, n):
    field = base_field(q)
    rng = random.Random(q * 1000 + n)
    f, m = random_poly(rng, field, n - 1), x_n_minus_1(field, n)
    g, u, v = reference_egcd(field, f, m)
    assert pegcd(field, f, m) == (g, u, v)
    assert pgcd(field, f, m) == g
    # and with the arguments swapped: the first step only exchanges them
    assert pegcd(field, m, f) == (g, v, u)


@pytest.mark.parametrize("q", [3, 8, 49])
def test_euclid_edge_cases(q):
    field = base_field(q)
    rng = random.Random(q)
    one = pone(field)
    a, b = random_poly(rng, field, 9), random_poly(rng, field, 4)
    const = random_poly(rng, field, 0)
    cases = [
        ((), ()),
        ((), b),
        (a, ()),
        (b, a),  # len(a) < len(b)
        (a, const),
        (const, a),
        (a, a),
        (one, one),
    ]
    for x, y in cases:
        want = reference_egcd(field, x, y)
        assert pegcd(field, x, y) == want, (x, y)
        assert pgcd(field, x, y) == want[0], (x, y)
    assert pegcd(field, (), ()) == ((), one, ())
    assert pgcd(field, a, a) == pmul(field, a, _inverse(field, tuple(a[-field.k :])))


def test_egcd_at_p_65521_stays_exact():
    # from reduced rows, each product c_m * act[m] is below p^3 < 2^48; a
    # cofactor row left unreduced between steps would feed its growth into
    # the next act, about p^2 more per step, and overflow int64 within a few
    # steps of this 60-step egcd
    field = base_field(65521)
    rng = random.Random(65521)
    a, b = random_poly(rng, field, 60), random_poly(rng, field, 59)
    want = reference_egcd(field, a, b)
    assert pegcd(field, a, b) == want
    assert pgcd(field, a, b) == want[0]
    # the ring inverse is the u of the egcd with x^n - 1
    n = 61
    ring = RingSpec(field, n)
    f = ring.element(random_poly(rng, field, n - 1))
    f_inv = ring_inverse(f)
    assert pcyclic_mul(field, f.coords, f_inv.coords, n) == (1,) + (0,) * (n - 1)


def test_long_quotient_at_p_65521_takes_the_reduced_branch():
    # over F_{65521^8}, k^2 * p^3 * 513 >= 2^63: the first step, a quotient of
    # 513 slots by a divisor of 513, reduces act before it divides (the bound
    # is a worst case; this checks the results of that branch)
    field = base_field(65521**8)
    rng = random.Random(8)
    b, q = random_poly(rng, field, 512), random_poly(rng, field, 512)
    a = padd(field, pmul(field, b, q), pone(field))
    want = reference_egcd(field, a, b)
    assert want[0] == pone(field)
    assert pegcd(field, a, b) == want
