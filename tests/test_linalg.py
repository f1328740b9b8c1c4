"""``_linalg.rank_mod``, ``echelon_mod`` and ``solve_mod`` against a naive
Gauss-Jordan over Python ints, and ``matmul_mod`` against int64 products.

For odd p the kernel keeps entries unreduced between pivots, and over F_2 it
XORs rows packed into Python ints; the reference reduces every entry at
every step and shares no code with it. Matrices are built as
A @ B with a small inner dimension, so most of them are rank-deficient.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linperm import _linalg
from linperm.errors import InternalError

PRIMES = [2, 3, 11, 65521]


def naive_gauss_jordan(rows, p):
    """(reduced row echelon form without its zero rows, pivot columns)."""
    m = [[v % p for v in row] for row in rows]
    rank, pivots = 0, []
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [v * inv % p for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
        pivots.append(col)
    return m[:rank], pivots


def naive_rank(rows, p):
    return len(naive_gauss_jordan(rows, p)[1])


@st.composite
def products(draw):
    p = draw(st.sampled_from(PRIMES))
    d = draw(st.integers(1, 40))
    e = draw(st.integers(1, 40))
    r = draw(st.integers(0, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    # entries of A outside [0, p) check that rank_mod reduces its input
    A = rng.integers(-2 * p, 2 * p, (d, r))
    B = rng.integers(0, p, (r, e))
    return p, (A @ B).astype(np.int64)


@settings(max_examples=200)
@given(products())
def test_rank_mod_matches_gauss_jordan(case):
    p, M = case
    before = M.copy()
    assert _linalg.rank_mod(M, p) == naive_rank(M.tolist(), p)
    assert np.array_equal(M, before)


def test_rank_mod_empty_and_zero():
    assert _linalg.rank_mod(np.zeros((0, 4), dtype=np.int64), 3) == 0
    assert _linalg.rank_mod(np.zeros((4, 0), dtype=np.int64), 3) == 0
    assert _linalg.rank_mod(np.full((3, 5), 7, dtype=np.int64), 7) == 0


def test_rank_mod_large_prime_known_rank():
    """300 x 300 over F_65521 with rank 250 by construction: L D U with L unit
    lower and U unit upper triangular and D diagonal with 250 nonzero
    entries, so unreduced entries grow through many steps toward the stated
    bound p + s*p^2."""
    p, size, rank = 65521, 300, 250
    rng = np.random.default_rng(7)
    L = np.tril(rng.integers(0, p, (size, size)), -1) + np.eye(size, dtype=np.int64)
    U = np.triu(rng.integers(0, p, (size, size)), 1) + np.eye(size, dtype=np.int64)
    diag = np.zeros(size, dtype=np.int64)
    diag[rng.permutation(size)[:rank]] = rng.integers(1, p, rank)
    # (L D) U mod p, reduced after each product so nothing overflows here
    M = (L * diag % p) @ U % p
    before = M.copy()
    assert _linalg.rank_mod(M, p) == rank
    assert np.array_equal(M, before)


@settings(max_examples=200)
@given(products())
def test_echelon_mod_matches_gauss_jordan(case):
    p, M = case
    before = M.copy()
    E, pivots = _linalg.echelon_mod(M, p)
    assert np.array_equal(M, before)
    rref, naive_pivots = naive_gauss_jordan(M.tolist(), p)
    assert pivots == naive_pivots
    assert E.shape == (len(pivots), M.shape[1])
    assert ((0 <= E) & (E < p)).all()
    for i, col in enumerate(pivots):
        assert not E[i, :col].any() and E[i, col] == 1
    # the reduced form is unique, so equal forms mean equal row spaces
    assert naive_gauss_jordan(E.tolist(), p)[0] == rref


@st.composite
def systems(draw):
    p, A = draw(products())
    seed = draw(st.integers(0, 2**32 - 1))
    x0 = np.random.default_rng(seed).integers(0, p, A.shape[1])
    return p, A, x0


@settings(max_examples=200)
@given(systems())
def test_solve_mod_solves_consistent_systems(case):
    p, A, x0 = case
    b = A @ x0
    x = _linalg.solve_mod(A, b, p)
    assert x is not None
    assert ((0 <= x) & (x < p)).all()
    assert np.array_equal((A @ x - b) % p, np.zeros_like(b))


@settings(max_examples=200)
@given(systems())
def test_solve_mod_is_none_outside_the_column_space(case):
    p, A, x0 = case
    b = np.random.default_rng(int(x0.sum())).integers(0, p, A.shape[0])
    consistent = naive_rank(np.column_stack([A, b]).tolist(), p) == naive_rank(A.tolist(), p)
    x = _linalg.solve_mod(A, b, p)
    if consistent:
        assert np.array_equal((A @ x - b) % p, np.zeros_like(b))
    else:
        assert x is None


def test_solve_mod_rank_deficient_known_case():
    # x + y = 1, 2x + 2y = 2 over F_3 is consistent; 2x + 2y = 0 is not
    A = np.array([[1, 1], [2, 2]])
    x = _linalg.solve_mod(A, np.array([1, 2]), 3)
    assert (A @ x % 3).tolist() == [1, 2]
    assert _linalg.solve_mod(A, np.array([1, 0]), 3) is None


# --- the packed F_2 rows and the dtype chosen by the bound -------------------


def assert_echelon_matches(M, p):
    """The contract of rank_mod and echelon_mod on one matrix: the rank and
    pivots of the naive reference, rows that are 0 then 1 at their pivot,
    the same row space, and ``M`` left unchanged."""
    before = M.copy()
    rref, naive_pivots = naive_gauss_jordan(M.tolist(), p)
    assert _linalg.rank_mod(M, p) == len(naive_pivots)
    E, pivots = _linalg.echelon_mod(M, p)
    assert np.array_equal(M, before)
    assert pivots == naive_pivots
    assert E.dtype == np.int64 and E.shape == (len(pivots), M.shape[1])
    assert ((0 <= E) & (E < p)).all()
    for i, col in enumerate(pivots):
        assert not E[i, :col].any() and E[i, col] == 1
    assert naive_gauss_jordan(E.tolist(), p)[0] == rref


@pytest.mark.parametrize("width", [1, 7, 9, 65, 255, 300])
def test_f2_rows_of_any_width(width):
    # one packed byte holds 8 columns: widths off a multiple of 8 leave
    # padding bits, and rows wider than 64 columns outgrow a machine word
    rng = np.random.default_rng(width)
    for height in (1, 13, 70, 120):
        inner = rng.integers(0, height + 1)
        # entries outside [0, 2), negative ones too, check the reduction
        assert_echelon_matches(rng.integers(-4, 4, (height, width)), 2)
        A = rng.integers(-4, 4, (height, inner))
        assert_echelon_matches(A @ rng.integers(0, 2, (inner, width)), 2)


def ldu(p, size, rank, seed):
    """L D U mod p: L unit lower and U unit upper triangular, D diagonal
    with ``rank`` nonzero entries, so its rank over F_p is ``rank``."""
    rng = np.random.default_rng(seed)
    L = np.tril(rng.integers(0, p, (size, size)), -1) + np.eye(size, dtype=np.int64)
    U = np.triu(rng.integers(0, p, (size, size)), 1) + np.eye(size, dtype=np.int64)
    diag = np.zeros(size, dtype=np.int64)
    diag[rng.permutation(size)[:rank]] = rng.integers(1, p, rank)
    return (L * diag % p) @ U % p


def test_rank_mod_f2_known_rank():
    """255 x 255 over F_2 with rank 200 by construction, the size of the
    rank test's matrices at (2, 255)."""
    M = ldu(2, 255, 200, 11)
    before = M.copy()
    assert _linalg.rank_mod(M, 2) == 200
    assert np.array_equal(M, before)


@pytest.mark.parametrize(
    "p,size,dtype",
    [
        # 13 + 193*13^2 < 2^15 <= 13 + 194*13^2
        (13, 193, np.int16),
        (13, 194, np.int32),
        # 4093 + 128*4093^2 < 2^31 <= 4093 + 129*4093^2
        (4093, 128, np.int32),
        (4093, 129, np.int64),
    ],
)
def test_elimination_dtype_switches_at_the_bound(p, size, dtype):
    rank = size - 3
    M = ldu(p, size, rank, size)
    before = M.copy()
    assert _linalg._eliminate(M, p)[0].dtype == dtype
    assert _linalg.rank_mod(M, p) == rank
    assert_echelon_matches(M, p)
    assert np.array_equal(M, before)


# --- narrow inputs -----------------------------------------------------------


def int16_copy(M, p):
    """M mod p as int16, in residues of least absolute value: below 2^15 in
    absolute value for every p < 2^16, negative ones included."""
    R = M % p
    return np.where(R > p // 2, R - p, R).astype(np.int16)


@settings(max_examples=200)
@given(systems())
def test_int16_input_matches_int64(case):
    """rank_mod, echelon_mod and solve_mod read a narrow signed matrix in its
    own dtype (the rank test hands them int16) with the results of its int64
    copy, p = 65521 included, where p itself does not fit int16."""
    p, A, x0 = case
    A16 = int16_copy(A, p)
    before = A16.copy()
    assert _linalg.rank_mod(A16, p) == _linalg.rank_mod(A, p)
    (E16, pivots16), (E, pivots) = _linalg.echelon_mod(A16, p), _linalg.echelon_mod(A, p)
    assert pivots16 == pivots and E16.dtype == np.int64 and np.array_equal(E16, E)
    rng = np.random.default_rng(int(x0.sum()))
    for b in (A @ x0, rng.integers(0, p, A.shape[0])):
        x16, x = _linalg.solve_mod(A16, int16_copy(b, p), p), _linalg.solve_mod(A, b, p)
        assert (x16 is None) == (x is None)
        assert x is None or np.array_equal(x16, x)
    assert np.array_equal(A16, before)


def test_unsigned_input_keeps_its_values():
    # uint16 entries up to p - 1 = 65520, as the Frobenius cache stores them:
    # read as int16 in place they would turn negative and change mod p
    p = 65521
    M = ldu(p, 40, 37, 5)
    U = M.astype(np.uint16)
    assert U.max() > 2**15
    assert _linalg.rank_mod(U, p) == 37
    assert np.array_equal(_linalg.echelon_mod(U, p)[0], _linalg.echelon_mod(M, p)[0])


# --- the exact product mod p -------------------------------------------------


@st.composite
def float_operands(draw):
    """(A, B, p): A of shape (m, K), B of shape (K, r) or (K,), entries in
    [0, p), int64 or uint16, B possibly a transposed (non-contiguous) view,
    A possibly already cast by ``cast_exact``. p = 251 switches from float32
    to float64 between K = 268 and 269."""
    p = draw(st.sampled_from([2, 3, 251, 65521]))
    K = draw(st.one_of(st.integers(1, 300), st.integers(300, 3000)))
    m, r = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    dtype = draw(st.sampled_from([np.int64, np.uint16]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.integers(0, p, (m, K)).astype(dtype)
    B = rng.integers(0, p, (r, K)).astype(dtype)
    B = draw(st.sampled_from([B.T, np.ascontiguousarray(B.T), B[0]]))
    if draw(st.booleans()):
        A = _linalg.cast_exact(A, p)
    return A, B, p


@settings(max_examples=150, deadline=None)
@given(float_operands())
def test_matmul_mod_matches_int64(case):
    A, B, p = case
    got = _linalg.matmul_mod(A, B, p)
    want = A.astype(np.int64) @ B.astype(np.int64) % p
    assert got.dtype == np.int64 and np.array_equal(got, want)


@pytest.mark.parametrize(
    "p,K,dtype",
    [(2, 3000, np.float32), (251, 268, np.float32), (251, 269, np.float64), (65521, 1, np.float64)],
)
def test_matmul_mod_is_exact_at_the_switch(p, K, dtype):
    # the largest sums the bound allows: all p - 1 but one p - 2, so that past
    # 2^24 the sum is odd and float32 would round it
    a = np.full(K, p - 1, dtype=np.int64)
    a[-1] = p - 2
    assert _linalg.cast_exact(a[None], p).dtype == dtype
    want = sum(int(v) * int(v) for v in a) % p
    assert _linalg.matmul_mod(a[None], a[:, None], p).tolist() == [[want]]


def test_matmul_mod_refuses_past_the_float64_bound():
    p = 65521
    K = -(-(1 << 53) // (p - 1) ** 2)  # the least K with K*(p - 1)^2 >= 2^53
    # K - 1 still runs in float64: its cast is one row of 16 MB
    below = np.broadcast_to(np.uint16(0), (1, K - 1))
    assert _linalg.cast_exact(below, p).dtype == np.float64
    # zero-stride operands: nothing of size K is allocated before the refusal
    A = np.broadcast_to(np.uint16(p - 1), (1, K))
    B = np.broadcast_to(np.uint16(p - 1), (K, 1))
    with pytest.raises(InternalError, match="_linalg"):
        _linalg.matmul_mod(A, B, p)
