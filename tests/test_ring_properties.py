"""Algebraic identities of the ring layer (F_q[x] and F_q[x]/(x^n - 1)).

The kernels work on flat ints mod p; the reference here is a naive product
over boxed F_q scalars, so it shares no code with them. F_4, F_8 and F_9 run
the k x k block path of every kernel, F_3 and F_11 the 1 x 1 one.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linperm import (
    ComponentVector,
    Poly,
    RingSpec,
    base_field,
    compose,
    conventional_associate,
    extension_field,
    linearized_associate,
    poly_egcd,
    primitive_idempotents,
    project,
    reconstruct,
    ring_inverse,
    ring_is_unit,
    ring_mul,
)
from linperm import _polys

# (q, n) with gcd(n, q) = 1; the base fields cover k = 1 and k > 1
RINGS = [
    (3, 4), (3, 5), (11, 3), (11, 5), (4, 3), (4, 5), (8, 3), (8, 5), (9, 2), (9, 4)
]


def _scalars(field, coords):
    k = field.k
    return [field.element(coords[j : j + k]) for j in range(0, len(coords), k)]


def _flat(field, scalars):
    return _polys.ptrim(field, tuple(v for c in scalars for v in c.coeffs))


def naive_mul(field, a, b, n=None):
    """Schoolbook product of flat a and b over boxed scalars, folded mod x^n - 1
    when n is given."""
    xs, ys = _scalars(field, a), _scalars(field, b)
    size = n or max(len(xs) + len(ys) - 1, 0)
    out = [field.zero()] * size
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            out[(i + j) % size] = out[(i + j) % size] + x * y
    coords = tuple(v for c in out for v in c.coeffs)
    return coords if n else _polys.ptrim(field, coords)


def naive_add(field, a, b):
    xs, ys = _scalars(field, a), _scalars(field, b)
    size = max(len(xs), len(ys))
    xs += [field.zero()] * (size - len(xs))
    ys += [field.zero()] * (size - len(ys))
    return _flat(field, [x + y for x, y in zip(xs, ys)])


@st.composite
def field_polys(draw, count, max_deg=7):
    """(field, [poly, ...]): polynomials as flat coordinates, trimmed."""
    q = draw(st.sampled_from([3, 11, 4, 8]))
    field = base_field(q)
    polys = []
    for _ in range(count):
        values = draw(st.lists(st.integers(0, q - 1), max_size=max_deg + 1))
        polys.append(_flat(field, [field.from_int(v) for v in values]))
    return field, polys


@st.composite
def ring_elements(draw, count):
    q, n = draw(st.sampled_from(RINGS))
    ring = RingSpec(base_field(q), n)
    out = []
    for _ in range(count):
        values = draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
        out.append(ring.element([ring.base.from_int(v) for v in values]))
    return ring, out


@settings(max_examples=60)
@given(field_polys(2))
def test_divmod_recomposes_naively(data):
    field, (a, b) = data
    if not b:
        return
    q, r = _polys.pdivmod(field, a, b)
    assert naive_add(field, naive_mul(field, q, b), r) == a
    assert _polys.pdeg(field, r) < _polys.pdeg(field, b)


def _random_poly(rng, field, slots, lead):
    """Flat polynomial of ``slots`` slots whose top slot is ``field.from_int(lead)``."""
    values = [rng.randrange(field.q) for _ in range(slots - 1)] + [lead]
    return _flat(field, [field.from_int(v) for v in values])


@pytest.mark.parametrize("q", [2, 3, 4, 8, 11, 49])
def test_divmod_finds_a_planted_quotient_and_remainder(q):
    # a = b*quo + rem by the schoolbook reference, deg rem < deg b, and b's
    # lead is not 1 wherever F_q has another nonzero scalar
    field = base_field(q)
    rng = random.Random(q)
    for _ in range(4):
        b = _random_poly(rng, field, rng.randint(1, 61), rng.randrange(min(2, q - 1), q))
        quo = _random_poly(rng, field, rng.randint(1, 61), rng.randrange(1, q))
        nb = len(b) // field.k
        rem = _random_poly(rng, field, rng.randint(0, nb - 1), rng.randrange(q))
        a = naive_add(field, naive_mul(field, b, quo), rem)
        assert _polys.pdivmod(field, a, b) == (quo, rem)


@pytest.mark.parametrize("q", [2, 4, 49])
def test_divmod_edge_cases(q):
    field = base_field(q)
    rng = random.Random(q)
    one = _polys.pone(field)
    a = _random_poly(rng, field, 7, q - 1)
    b = _random_poly(rng, field, 9, q - 1)
    assert _polys.pdivmod(field, a, b) == ((), a)
    assert _polys.pdivmod(field, b, b) == (one, ())
    assert _polys.pdivmod(field, (), b) == ((), ())
    c = field.from_int(q - 1).coeffs
    quo, rem = _polys.pdivmod(field, a, c)
    assert rem == () and naive_mul(field, quo, c) == a
    with pytest.raises(ZeroDivisionError):
        _polys.pdivmod(field, a, ())


def test_divmod_of_a_long_quotient_at_p_65521_takes_the_reduced_branch():
    # over F_{65521^8}, k^2 * p^3 * 513 >= 2^63: a quotient of 513 slots by a
    # divisor of 513 reduces act before it divides; a is built by the cyclic
    # product, which shares nothing with the division
    field = base_field(65521**8)
    assert field.k**2 * field.p**3 * 513 >= 1 << 63
    rng = random.Random(8)

    def poly(slots, lead):
        coords = [rng.randrange(field.p) for _ in range(field.k * (slots - 1))]
        return tuple(coords) + lead

    b = poly(513, (3, 1) + (0,) * 6)
    quo = poly(513, _polys.pone(field))
    rem = _polys.ptrim(field, poly(512, (0,) * 8))
    a = _polys.padd(field, _polys.pmul(field, b, quo), rem)
    assert _polys.pdivmod(field, a, b) == (quo, rem)


@settings(max_examples=60)
@given(field_polys(2))
def test_egcd_is_a_monic_common_divisor(data):
    field, (a, b) = data
    if not a and not b:
        return
    g, u, v = _polys.pegcd(field, a, b)
    assert naive_add(field, naive_mul(field, u, a), naive_mul(field, v, b)) == g
    assert g[-field.k :] == _polys.pone(field)
    for h in (a, b):
        quo, rem = _polys.pdivmod(field, h, g)
        assert rem == ()
        assert naive_mul(field, quo, g) == h


@settings(max_examples=60)
@given(ring_elements(2), st.data())
def test_cyclic_product_is_folded_naive_product(data, extra):
    ring, (f, g) = data
    want = naive_mul(ring.base, f.coords, g.coords, ring.n)
    assert _polys.pcyclic_mul(ring.base, f.coords, g.coords, ring.n) == want
    assert ring_mul(f, g).coords == want
    assert f - g == f + (-g)
    assert (f + (-f)).is_zero()
    # a polynomial of degree up to 3n folds to its remainder mod x^n - 1
    q, n = ring.base.q, ring.n
    values = extra.draw(st.lists(st.integers(0, q - 1), max_size=3 * n + 1))
    h = Poly(ring.base, _flat(ring.base, [ring.base.from_int(v) for v in values]))
    assert ring.from_poly(h) == ring.from_poly(h % ring.modulus())


@settings(max_examples=40)
@given(ring_elements(1))
def test_reconstruct_inverts_project(data):
    ring, (f,) = data
    basis = primitive_idempotents(ring)
    assert reconstruct(project(f, basis), basis) == f


@settings(max_examples=40)
@given(ring_elements(1))
def test_component_inverse_is_ring_inverse(data):
    ring, (f,) = data
    if not ring_is_unit(f):
        return
    basis = primitive_idempotents(ring)
    v = project(f, basis)
    inverses = []
    for entry, comp in zip(v.entries, basis.components):
        g, u, _ = poly_egcd(entry.to_poly(), comp.factor)
        assert g == Poly.one(ring.base)
        inverses.append(ring.from_poly(u))
    inv = reconstruct(ComponentVector(ring, tuple(inverses)), basis)
    assert inv == ring_inverse(f)
    assert naive_mul(ring.base, f.coords, inv.coords, ring.n) == ring.one().coords


@settings(max_examples=30)
@given(ring_elements(2))
def test_compose_matches_ring_product(data):
    ring, (f, g) = data
    ext = extension_field(ring.base.q, ring.n)
    F, G = linearized_associate(f, ext), linearized_associate(g, ext)
    assert conventional_associate(compose(F, G)) == ring_mul(f, g)
