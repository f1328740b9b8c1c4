"""``_linalg.rank_mod``, ``echelon_mod`` and ``solve_mod`` against a naive
Gauss-Jordan over Python ints.

The kernel keeps entries unreduced between pivots; the reference reduces
every entry at every step and shares no code with it. Matrices are built as
A @ B with a small inner dimension, so most of them are rank-deficient.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from linperm import _linalg

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
