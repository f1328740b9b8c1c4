"""The in-place Euclid loop behind ``pgcd`` and ``pegcd``, against long division.

The reference is the textbook remainder sequence, one ``pdivmod`` per step
with the cofactors updated by tuple products; the loop must match it to the
byte, on k = 1 and k > 1 fields alike.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linperm import RingSpec, _polys, base_field, ring_inverse
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
    """(field, a, b) over F_2, F_3, F_4, F_8, F_9, F_11, F_16 or F_49, of
    degree up to max_deg, sometimes with a common factor and sometimes equal."""
    field = base_field(draw(st.sampled_from([2, 3, 4, 8, 9, 11, 16, 49])))
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


# --- an independent reference: schoolbook division on F_q scalars ------------
#
# ``reference_egcd`` above is built on ``pdivmod``, which runs the packed step
# that the loop runs too. The reference below shares nothing with it but
# ``_inverse``: a polynomial is a list of slots, each a tuple of coordinates,
# and every product is a schoolbook one.


def _scalar_mul(field, a, b):
    """a*b for F_q scalars: the product in F_p[y], then y^t reduced by the
    base modulus from the top down."""
    p, k = field.p, field.k
    if k == 1:
        return (a[0] * b[0] % p,)
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for t in range(2 * k - 2, k - 1, -1):
        for l, m in enumerate(field.base_modulus):
            prod[t - k + l] -= prod[t] * m
    return tuple(v % field.p for v in prod[:k])


def _slots(field, a):
    return [tuple(a[i : i + field.k]) for i in range(0, len(a), field.k)]


def _flat(slots):
    while slots and not any(slots[-1]):
        slots = slots[:-1]
    return tuple(c for s in slots for c in s)


def _sub(field, a, b):
    zero = (0,) * field.k
    a, b = _slots(field, a), _slots(field, b)
    a, b = a + [zero] * (len(b) - len(a)), b + [zero] * (len(a) - len(b))
    return _flat([tuple((x - y) % field.p for x, y in zip(s, t)) for s, t in zip(a, b)])


def _mul(field, a, b):
    a, b = _slots(field, a), _slots(field, b)
    out = [(0,) * field.k] * max(len(a) + len(b) - 1, 0)
    for i, s in enumerate(a):
        for j, t in enumerate(b):
            st = _scalar_mul(field, s, t)
            out[i + j] = tuple((x + y) % field.p for x, y in zip(out[i + j], st))
    return _flat(out)


def schoolbook_divmod(field, a, b):
    """(quotient, remainder) by long division, one slot at a time."""
    rem, div = _slots(field, a), _slots(field, b)
    inv = _inverse(field, div[-1])
    quo = [(0,) * field.k] * max(len(rem) - len(div) + 1, 0)
    for j in range(len(rem) - len(div), -1, -1):
        quo[j] = c = _scalar_mul(field, rem[j + len(div) - 1], inv)
        for i, d in enumerate(div):
            cd = _scalar_mul(field, c, d)
            rem[j + i] = tuple((x - y) % field.p for x, y in zip(rem[j + i], cd))
    return _flat(quo), _flat(rem[: len(div) - 1])


def schoolbook_egcd(field, a, b):
    """(g, u, v) with u*a + v*b = g monic, by ``schoolbook_divmod``."""
    one = (1,) + (0,) * (field.k - 1)
    (r0, u0, v0), (r1, u1, v1) = (a, one, ()), (b, (), one)
    while r1:
        q, r = schoolbook_divmod(field, r0, r1)
        step = (r, _sub(field, u0, _mul(field, q, u1)), _sub(field, v0, _mul(field, q, v1)))
        (r0, u0, v0), (r1, u1, v1) = (r1, u1, v1), step
    if not r0:
        return (), u0, v0
    inv = _inverse(field, tuple(r0[-field.k :]))
    return tuple(_mul(field, h, inv) for h in (r0, u0, v0))


def check_against_schoolbook(field, a, b):
    want = schoolbook_egcd(field, a, b)
    assert pegcd(field, a, b) == want
    assert pgcd(field, a, b) == want[0]
    if b:
        assert pdivmod(field, a, b) == schoolbook_divmod(field, a, b)


def test_schoolbook_reference_by_hand():
    # over F_3: x^3 + 2 = x (x^2 + 1) + 2x + 2, and
    # (1 + 2x)(x^3 + 2) + (2 + 2x + x^2)(x^2 + 1) = 1;
    # (x + 1)^2 = x (x + 2) + 1, so 1 * (x + 1)^2 + 2x (x + 2) = 1
    F3 = base_field(3)
    assert schoolbook_divmod(F3, (2, 0, 0, 1), (1, 0, 1)) == ((0, 1), (2, 2))
    assert schoolbook_egcd(F3, (2, 0, 0, 1), (1, 0, 1)) == ((1,), (1, 2), (2, 2, 1))
    assert schoolbook_egcd(F3, (1, 2, 1), (2, 1)) == ((1,), (1,), (0, 2))
    assert schoolbook_egcd(F3, (1, 2, 1), (1, 1)) == ((1, 1), (), (1,))
    # over F_4 = F_2[y]/(y^2 + y + 1): y * y = y + 1, and y * (y + 1) = 1
    F4 = base_field(4)
    assert _scalar_mul(F4, (0, 1), (0, 1)) == (1, 1)
    assert _scalar_mul(F4, (0, 1), (1, 1)) == (1, 0)


@settings(max_examples=150)
@given(poly_pairs())
def test_euclid_and_division_match_schoolbook(data):
    check_against_schoolbook(*data)


@pytest.mark.parametrize(
    "q, n", [(3, 25), (11, 9), (3, 125), (2, 255), (8, 11), (4, 3), (49, 10), (16, 17), (4, 63), (9, 40)]
)
def test_gcd_with_x_n_minus_1_matches_schoolbook(q, n):
    field = base_field(q)
    rng = random.Random(q * 7 + n)
    f, m = random_poly(rng, field, n - 1), x_n_minus_1(field, n)
    check_against_schoolbook(field, f, m)
    check_against_schoolbook(field, m, f)
    check_against_schoolbook(field, f, f)
    # a non-unit: f times x - 1, a factor of x^n - 1, reduced mod x^n - 1
    x_minus_1 = _sub(field, (0,) * field.k + pone(field), pone(field))
    check_against_schoolbook(field, schoolbook_divmod(field, _mul(field, f, x_minus_1), m)[1], m)


def loop_reductions(monkeypatch, rows):
    """Counts of the reductions of all ``rows`` rows that the Euclid loop
    makes, seen through ``_polys._reduced``."""
    calls = []
    real = _polys._reduced

    def counted(p, L, lanes, packed):
        calls.append(len(packed))
        return real(p, L, lanes, packed)

    monkeypatch.setattr(_polys, "_reduced", counted)
    return lambda: calls.count(rows)


@pytest.mark.parametrize("q, degree, least", [(65521, 80, 30), (2, 300, 0), (4, 120, 0), (8, 80, 0), (49, 60, 2)])
def test_long_chains_take_the_delayed_reduction(monkeypatch, q, degree, least):
    # k = 1 at p = 65521 reduces every few steps, and so does F_49; each
    # chain must reduce and stay exact. Over F_2, F_4 and F_8 the rows are
    # bit-rows, which are exact and never reduce
    field = base_field(q)
    rng = random.Random(degree)
    a = random_poly(rng, field, degree - 1) + pone(field)
    b = random_poly(rng, field, degree - 2) + pone(field)
    want = schoolbook_egcd(field, a, b)
    egcd_reductions = loop_reductions(monkeypatch, 6)
    assert pegcd(field, a, b) == want
    gcd_reductions = loop_reductions(monkeypatch, 2)
    assert pgcd(field, a, b) == want[0]
    for count in (egcd_reductions(), gcd_reductions()):
        assert count >= least if field.p > 2 else count == 0


@pytest.mark.parametrize("p, L", [(3, 32), (3, 64), (5, 32), (11, 64), (7, 48), (65521, 80), (65521, 96)])
def test_lane_reduction_is_exact_up_to_its_bound(p, L):
    # the Barrett step that reduces odd-p lanes is exact on every lane below
    # 2^B, B = (L - 2)//2: the top 300 values below the bound and 0..299
    B = (L - 2) // 2
    lanes = [(1 << B) - 1 - i for i in range(300)] + list(range(300))
    row = sum(v << L * i for i, v in enumerate(lanes))
    (out,) = _polys._reduced(p, L, len(lanes), [row])
    assert [out >> L * i & (1 << L) - 1 for i in range(len(lanes))] == [v % p for v in lanes]


@pytest.mark.parametrize("p, k, s", [(3, 1, 126), (11, 1, 10), (257, 1, 2), (7, 2, 60), (65521, 1, 80), (65521, 8, 513)])
def test_lane_width_holds_one_step_from_reduced_rows(p, k, s):
    # a step of s quotient slots from reduced rows stays below 2^B, B =
    # (L - 2)//2, where the Barrett step is exact; L is a multiple of 16 no
    # wider than that or the floor for the row length needs
    B = (p - 1 + s * k * (p - 1) ** 2).bit_length()
    for lanes in (2 * k * s, 1000):
        L = _polys._lane_width(p, k, s, lanes)
        assert L % 16 == 0 and B <= (L - 2) // 2
        assert L - 16 < 2 * B + 2 or L == (32 if lanes >= _polys._NARROW_LANES else 64)


def test_long_first_quotient_at_p_2():
    # x^1023 - 1 by a degree-10 f: a first quotient of 1014 slots, found on
    # the top slots alone, then a short chain
    field = base_field(2)
    rng = random.Random(1023)
    f = (1,) + tuple(rng.randrange(2) for _ in range(9)) + (1,)
    m = x_n_minus_1(field, 1023)
    check_against_schoolbook(field, m, f)
    check_against_schoolbook(field, f, m)
