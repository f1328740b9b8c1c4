"""The flat LinearizedPoly: its (n, k*n) coordinate array against boxed references.

Each property runs over F_{3^5}, F_{4^3}, F_{8^3} and F_{251^3}, so the k x k
block path (k > 1) is covered next to the prime one, and a prime whose
one-byte Frobenius entries multiply past 255. Coefficients are zero, in F_q
or anywhere in F_{q^n}.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from linperm import (
    LinearizedPoly,
    alpha_shift,
    compose,
    evaluate_many,
    extension_field,
    format_linearized,
    parse_linearized,
)
from linperm.fields import frobenius

FIELDS = [(3, 5), (4, 3), (8, 3), (251, 3)]


def _coeff(E):
    zero = st.just(E.zero())
    base = st.integers(0, E.q - 1).map(lambda v: E.embed(E.base.from_int(v)))
    full = st.integers(0, E.order - 1).map(E.from_int)
    return st.one_of(zero, base, full)


def _poly(E):
    return st.lists(_coeff(E), min_size=E.n, max_size=E.n).map(
        lambda cs: LinearizedPoly(E, tuple(cs))
    )


@st.composite
def field_and_polys(draw, count=2):
    E = extension_field(*draw(st.sampled_from(FIELDS)))
    return (E,) + tuple(draw(_poly(E)) for _ in range(count))


def boxed_shift(F, alpha):
    """Slot i+1 (mod n) is frobenius(alpha, i) * f_i, one boxed product each."""
    n = F.spec.n
    out = [None] * n
    for i, c in enumerate(F.coeffs):
        out[(i + 1) % n] = frobenius(alpha, i) * c
    return LinearizedPoly(F.spec, tuple(out))


@given(field_and_polys(count=1), st.data())
def test_alpha_shift_matches_boxed_reference(case, data):
    E, F = case
    alpha = E.from_int(data.draw(st.integers(1, E.order - 1)))
    assert alpha_shift(F, alpha) == boxed_shift(F, alpha)


@given(field_and_polys(count=1))
def test_parse_format_roundtrip(case):
    E, F = case
    text = format_linearized(F)
    assert parse_linearized(text, E) == F
    assert parse_linearized(text, E).coeffs == F.coeffs


@given(field_and_polys(), st.data())
def test_compose_evaluates_as_composition(case, data):
    E, F, G = case
    p, width = E.base.p, E.base.k * E.n
    rows = data.draw(st.integers(0, width + 3))
    seed = data.draw(st.integers(0, 2**32 - 1))
    A = np.random.default_rng(seed).integers(0, p, (rows, width))
    want = evaluate_many(F, evaluate_many(G, A))
    assert np.array_equal(evaluate_many(compose(F, G), A), want)


@given(field_and_polys())
def test_add_then_sub_is_identity(case):
    E, F, G = case
    assert F + G - G == F
    assert -(-F) == F
    assert (F - F).is_zero()


@given(field_and_polys(count=1))
def test_equal_polys_hash_equal(case):
    E, F = case
    copies = [
        LinearizedPoly(E, F.coeffs),
        parse_linearized(format_linearized(F), E),
        F + LinearizedPoly(E, (E.zero(),) * E.n),
    ]
    for G in copies:
        assert G == F and hash(G) == hash(F)
    assert len({F, *copies}) == 1
