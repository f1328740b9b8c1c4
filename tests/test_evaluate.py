"""The batched evaluator and its row-wise product kernel.

``evaluate_many`` is checked against F(a) = sum_i c_i * a^(q^i) written out
with ``ExtElement.__pow__`` and ``__mul__``, which share no code with its
Frobenius table or with ``mulmod_rows``; ``mulmod_rows`` is checked against
``pmulmod`` one row at a time. F_4 and F_8 run the k x k block path, F_3 and
F_11 the 1 x 1 one. Batches run from 0 rows to more rows than coordinates,
so both ways of evaluating are covered.
"""

import numpy as np
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
