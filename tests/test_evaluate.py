"""The batched evaluator and its row-wise product kernel.

``evaluate_many`` is checked against F(a) = sum_i c_i * a^(q^i) written out
with ``ExtElement.__pow__`` and ``__mul__``, which share no code with its
Frobenius table or with ``mulmod_rows``; ``mulmod_rows`` is checked against
``pmulmod`` one row at a time. F_4 and F_8 run the k x k block path, F_3 and
F_11 the 1 x 1 one. Batches run from 0 rows to more rows than coordinates.
Powers, which ``**``, ``ppowmod`` and ``_polys._power`` take by one shared
square-and-multiply, are checked against repeated products.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linperm import LinearizedPoly, evaluate, evaluate_many, extension_field
from linperm import _polys, fields
from linperm.fields import ExtElement, _ext_reduction

FIELDS = [(3, 5), (4, 3), (8, 3), (11, 9)]


def naive_evaluate(F, a):
    out, power = F.spec.zero(), a
    for c in F.coeffs:
        out = out + c * power
        power = power ** F.spec.q
    return out


@st.composite
def cases(draw):
    """(F, rows): F with base or full coefficients, some of them zero."""
    E = extension_field(*draw(st.sampled_from(FIELDS)))
    p, k, n = E.base.p, E.base.k, E.n
    full = draw(st.booleans())
    digits = st.integers(0, p - 1)
    coeffs = []
    for _ in range(n):
        if draw(st.integers(0, 2)) == 0:
            coeffs.append(E.zero())
        else:
            coords = draw(st.lists(digits, min_size=k * n if full else k, max_size=k * n if full else k))
            coeffs.append(ExtElement(E, tuple(coords) + (0,) * (k * n - len(coords))))
    N = draw(st.integers(0, k * n + 3))
    rows = draw(st.lists(st.lists(digits, min_size=k * n, max_size=k * n), min_size=N, max_size=N))
    return LinearizedPoly(E, tuple(coeffs)), rows


@settings(max_examples=80)
@given(cases())
def test_evaluate_many_matches_naive(case):
    F, rows = case
    E = F.spec
    got = evaluate_many(F, np.array(rows, dtype=np.int64).reshape(-1, E.base.k * E.n))
    assert got.shape == (len(rows), E.base.k * E.n)
    want = [naive_evaluate(F, ExtElement(E, tuple(r))).coords for r in rows]
    assert [tuple(r) for r in got.tolist()] == want
    for r, image in zip(rows, want):
        assert evaluate(F, ExtElement(E, tuple(r))).coords == image


def test_evaluate_many_zero_polynomial_and_no_rows():
    for q, n in FIELDS:
        E = extension_field(q, n)
        width = E.base.k * E.n
        zero = LinearizedPoly(E, (E.zero(),) * n)
        rows = np.arange(3 * width).reshape(3, width) % E.base.p
        assert not evaluate_many(zero, rows).any()
        assert evaluate(zero, E.gen()) == E.zero()
        F = LinearizedPoly(E, (E.one(),) + (E.gen(),) * (n - 1))
        assert evaluate_many(F, np.zeros((0, width), dtype=np.int64)).shape == (0, width)
        assert evaluate_many(zero, np.zeros((0, width), dtype=np.int64)).shape == (0, width)


@st.composite
def products(draw):
    E = extension_field(*draw(st.sampled_from(FIELDS)))
    p, width = E.base.p, E.base.k * E.n
    N = draw(st.integers(0, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    A = rng.integers(0, p, (N, width))
    B = rng.integers(0, p, (N, width))
    if draw(st.booleans()):  # F_q scalars: only the first slot is nonzero
        B[:, E.base.k :] = 0
    return E, A, B


@settings(max_examples=80)
@given(products())
def test_mulmod_rows_matches_pmulmod(case):
    E, A, B = case
    red = _ext_reduction(E)
    got = _polys.mulmod_rows(E.base, red, A, B)
    assert got.shape == A.shape
    for a, b, row in zip(A.tolist(), B.tolist(), got.tolist()):
        assert tuple(row) == _polys.pmulmod(E.base, red, a, b)


def test_mul_rows_takes_either_path_with_the_same_result(monkeypatch):
    # below the budget the product tensor is used, above it mulmod_rows
    for q, n in FIELDS + [(3, 25), (8, 11)]:
        E = extension_field(q, n)
        p, width = E.base.p, E.base.k * E.n
        edge = fields._TENSOR_BUDGET // width**3
        rng = np.random.default_rng(q * n)
        for N in sorted({0, 1, edge, edge + 1}):
            A = rng.integers(0, p, (N, width))
            B = rng.integers(0, p, (N, width))
            for B in (B, B * (np.arange(width) < E.base.k)):
                want = _polys.mulmod_rows(E.base, _ext_reduction(E), A, B)
                assert np.array_equal(fields._mul_rows(E, A, B), want)

    # a field too wide for the tensor never builds one, even for no rows
    E = extension_field(3, 125)
    monkeypatch.setattr(fields, "_ext_tensor", None)
    for N in (0, 1):
        A = np.ones((N, 125), dtype=np.int64)
        assert np.array_equal(fields._mul_rows(E, A, A), _polys.mulmod_rows(E.base, _ext_reduction(E), A, A))


@pytest.mark.parametrize("q,n", FIELDS + [(3, 25), (8, 11), (49, 3), (27, 4)])
def test_unit_products_match_mulmod_rows_of_every_pair(q, n):
    E = extension_field(q, n)
    width = E.base.k * n
    eye = np.eye(width, dtype=np.int64)
    pairs = _polys.mulmod_rows(
        E.base, _ext_reduction(E), np.repeat(eye, width, axis=0), np.tile(eye, (width, 1))
    )
    got = _polys.unit_products(E.base, _ext_reduction(E))
    assert np.array_equal(got.reshape(width * width, width), pairs)
    assert np.array_equal(fields._ext_tensor(E), pairs.reshape(width, width * width))


def test_power_table_chain_matches_qth_powering(monkeypatch):
    from linperm import linearized

    monkeypatch.setattr(linearized, "_powers_held", {})
    for q, n in [(3, 25), (8, 11)]:
        E = extension_field(q, n)
        red = _ext_reduction(E)
        for top in (0, 3, n - 1):  # grown in steps, as evaluations ask
            table = linearized._power_table(E, top)
        assert table.shape == (n, E.base.k * n, E.base.k * n)
        # slice i + 1 is slice i raised to the q-th power row by row
        acc = np.eye(E.base.k * n, dtype=np.int64)
        for i in range(n):
            assert np.array_equal(table[i], acc), i
            acc = np.array([_polys.ppowmod(E.base, red, row, q) for row in acc.tolist()])


# --- broadcast operands, element products, both sides of every crossover -----
#
# (3,5), (4,3) and (11,9) are narrow enough for element products through the
# product tensor; (8,11) (k*n = 33) still multiplies one row of B through the
# tensor but elements by pmulmod, and (3,125) runs mulmod_rows and pmulmod
# alone. F_4 and F_8 run k > 1.
KERNEL_FIELDS = [(3, 5), (4, 3), (11, 9), (8, 11), (3, 125)]


def test_kernel_fields_span_the_crossovers():
    widths = [extension_field(q, n).base.k * n for q, n in KERNEL_FIELDS]
    assert {w <= fields._ELEMENT_TENSOR_WIDTH for w in widths} == {True, False}
    assert {w**3 <= fields._TENSOR_BUDGET for w in widths} == {True, False}


@st.composite
def broadcasts(draw):
    """(E, A, B): A of shape (N, w) or (t, N, w), B of A's shape with 1 for N."""
    E = extension_field(*draw(st.sampled_from(KERNEL_FIELDS)))
    p, width = E.base.p, E.base.k * E.n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t, N = draw(st.integers(0, 3)), draw(st.integers(0, 5))
    lead = (N,) if t == 0 else (t, N)
    A = rng.integers(0, p, lead + (width,))
    B = rng.integers(0, p, lead[:-1] + (1, width))
    if draw(st.booleans()):  # F_q scalars: only the first slot is nonzero
        B[..., E.base.k :] = 0
    return E, A, B


@settings(max_examples=60)
@given(broadcasts())
def test_broadcast_operand_equals_the_repeated_operand(case):
    E, A, B = case
    width = A.shape[-1]
    repeated = np.repeat(B, A.shape[-2], axis=-2)
    got = fields._mul_rows(E, A, B)
    assert got.shape == A.shape
    assert np.array_equal(got, fields._mul_rows(E, A, repeated))
    red = _ext_reduction(E)
    pairs = zip(A.reshape(-1, width).tolist(), repeated.reshape(-1, width).tolist())
    want = [_polys.pmulmod(E.base, red, a, b) for a, b in pairs]
    assert [tuple(r) for r in got.reshape(-1, width).tolist()] == want


@settings(max_examples=60)
@given(
    st.sampled_from(KERNEL_FIELDS),
    st.integers(0, 2**32 - 1),
    st.one_of(st.integers(0, 3), st.integers(0, 10**40)),
)
def test_element_product_and_power_match_pmulmod_and_ppowmod(qn, seed, e):
    E = extension_field(*qn)
    p, width = E.base.p, E.base.k * E.n
    rng = np.random.default_rng(seed)
    a, b = (ExtElement(E, tuple(rng.integers(0, p, width).tolist())) for _ in range(2))
    red = _ext_reduction(E)
    for x in (a, E.zero(), E.one()):
        assert (x * b).coords == _polys.pmulmod(E.base, red, x.coords, b.coords)
        assert (b * x).coords == _polys.pmulmod(E.base, red, b.coords, x.coords)
        assert (x**e).coords == _polys.ppowmod(E.base, red, x.coords, e)


@settings(max_examples=40)
@given(
    st.sampled_from(KERNEL_FIELDS),
    st.sampled_from([4, 8, 49]),
    st.integers(0, 2**32 - 1),
    st.integers(0, 10**40),
    st.integers(0, 10**40),
)
def test_powers_match_repeated_products(qn, q, seed, e1, e2):
    # ``**``, ``ppowmod`` and ``_polys._power`` share one square-and-multiply,
    # so each is checked against products alone: ``pmulmod`` for elements of
    # F_{q^n}, blocks for F_q scalars; e = 0 gives 1 everywhere, 0^0 included
    E = extension_field(*qn)
    p, width = E.base.p, E.base.k * E.n
    red = _ext_reduction(E)
    rng = np.random.default_rng(seed)

    def mul(x, y):
        return _polys.pmulmod(E.base, red, x, y)

    for a in (tuple(rng.integers(0, p, width).tolist()), E.zero().coords):
        for power in (
            lambda e: (ExtElement(E, a) ** e).coords,
            lambda e: _polys.ppowmod(E.base, red, a, e),
        ):
            acc = E.one().coords
            for e in range(4):
                assert power(e) == acc, e
                acc = mul(acc, a)
            assert power(E.order) == a
            assert power(e1 + e2) == mul(power(e1), power(e2))
    B = fields.base_field(q)
    for c in (B.from_int(int(rng.integers(q))), B.zero()):
        acc = _polys.pone(B)
        for e in range(2 * q + 2):
            assert _polys._power(B, c.coeffs, e) == (c**e).coeffs == acc, e
            acc = tuple((_polys._block(B, c.coeffs) @ np.array(acc) % B.p).tolist())


# the splitting fields that ring-queries powers elements in, F_{3^20} (for
# n = 25) and F_{8^10} (for n = 11), stay on pmulmod
@pytest.mark.parametrize(
    "q,n,tensor",
    [(3, 5, True), (4, 3, True), (11, 9, True), (2, 13, True), (4, 7, True), (2, 17, False),
     (3, 20, False), (8, 11, False), (3, 125, False)],
)
def test_element_products_take_the_tensor_only_on_narrow_fields(monkeypatch, q, n, tensor):
    def refuse(*args):
        raise AssertionError("product on the wrong side of the crossover")

    E = extension_field(q, n)
    a, b = E.gen() + E.one(), E.gen()
    red = _ext_reduction(E)
    want = [_polys.pmulmod(E.base, red, a.coords, b.coords)] + [
        _polys.ppowmod(E.base, red, a.coords, e) for e in (7, E.order - 2)
    ]
    if tensor:
        monkeypatch.setattr(_polys, "pmulmod", refuse)
        monkeypatch.setattr(_polys, "ppowmod", refuse)
    else:
        monkeypatch.setattr(fields, "_ext_tensor", refuse)
    assert [(a * b).coords, (a**7).coords, (a ** (E.order - 2)).coords] == want


@st.composite
def evaluations(draw):
    """(F, rows): F with base or full coefficients on a few slots, and fewer
    or at least as many rows as coordinates."""
    E = extension_field(*draw(st.sampled_from(KERNEL_FIELDS)))
    p, k, n = E.base.p, E.base.k, E.n
    width = k * n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # low slots only on (3,125), whose power table grows to the top slot
    slots = rng.choice(min(n, 9), size=draw(st.integers(1, min(n, 4))), replace=False)
    coeffs = [E.zero()] * n
    for i in slots.tolist():
        coords = rng.integers(0, p, width if draw(st.booleans()) else k)
        coeffs[i] = ExtElement(E, tuple(coords.tolist()) + (0,) * (width - len(coords)))
    N = draw(st.sampled_from([1, width - 1, width, width + 2]))
    return LinearizedPoly(E, tuple(coeffs)), rng.integers(0, p, (N, width))


@settings(max_examples=25)
@given(evaluations())
def test_evaluate_many_matches_evaluate_below_and_above_the_width(case):
    F, rows = case
    E = F.spec
    got = evaluate_many(F, rows)
    assert got.shape == rows.shape
    want = [evaluate(F, ExtElement(E, tuple(r))).coords for r in rows.tolist()]
    assert [tuple(r) for r in got.tolist()] == want
