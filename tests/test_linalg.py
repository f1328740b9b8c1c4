"""``_linalg.rank_mod`` against a naive Gauss-Jordan over Python ints,
``matmul_mod`` against int64 products, and F_q's y-power table and scalar
blocks against long division by m(y).

For odd p the kernel keeps entries unreduced between pivots, on rows packed
into Python ints of byte-aligned lanes for small matrices and in numpy
otherwise, and over F_2 it XORs rows packed into Python ints of bits; the
reference reduces every entry at every step and shares no code with it.
Matrices are built as A @ B with a small inner dimension, so most of them
are rank-deficient, and their shapes straddle the packed path's limit. The
path a shape takes is read off ``_linalg._lanes``, which ``rank_mod``
dispatches on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linperm import _linalg, _polys, base_field
from linperm.errors import InternalError

PRIMES = [2, 3, 11, 65521]


def naive_rank(rows, p):
    """The number of pivots of Gauss-Jordan elimination, every entry reduced
    at every step."""
    m = [[v % p for v in row] for row in rows]
    rank = 0
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
    return rank


@st.composite
def products(draw):
    p = draw(st.sampled_from(PRIMES))
    # odd p takes the packed rows up to d*max(d, e) = 2500, so shapes up to
    # 64 x 64 land on both sides of that limit, tall and wide ones included
    d = draw(st.integers(1, 64))
    e = draw(st.integers(1, 64))
    r = draw(st.integers(0, 64))
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
    # p = 2 packs rows of 0 bytes for no columns, 3 takes the packed lanes,
    # 65521 the numpy loop
    for p in (2, 3, 65521):
        for shape in ((0, 4), (4, 0), (3, 0), (0, 0)):
            assert _linalg.rank_mod(np.zeros(shape, dtype=np.int64), p) == 0
        assert _linalg.rank_mod(np.full((3, 5), 7 * p, dtype=np.int64), p) == 0
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


# --- the packed F_2 rows and the dtype chosen by the bound -------------------


def assert_rank_matches(M, p):
    """The contract of rank_mod on one matrix: the rank of the naive
    reference, on M and on its transpose, and ``M`` left unchanged."""
    before = M.copy()
    rank = naive_rank(M.tolist(), p)
    assert _linalg.rank_mod(M, p) == rank
    assert _linalg.rank_mod(M.T, p) == rank
    assert np.array_equal(M, before)


def path(p, d, e):
    """The layout ``rank_mod`` reduces a d x e matrix over F_p in: "bits"
    over F_2, the lane width of packed odd-p rows, or "numpy"."""
    if p == 2:
        return "bits"
    lanes = _linalg._lanes(p, d, e)
    return lanes[0] if lanes else "numpy"


# the cases name a layout by the dtype of its rows: F_2 rows are bytes, packed
# lanes big-endian unsigned and the numpy loop signed
LAYOUTS = {np.dtype(np.uint8): "bits", np.dtype(">u2"): 16, np.dtype(">u4"): 32,
           np.dtype(">u8"): 64, np.dtype(np.int16): "numpy", np.dtype(np.int64): "numpy"}


# The last size of each odd-p layout, as (p, d) with d x d the last square
# matrix on one side of the edge and (d + 1) x (d + 1) the first on the
# other: 16- to 32-bit lanes, 32- to 64-bit lanes, 64-bit lanes to the numpy
# loop, and packed rows to the numpy loop at _PACKED_ENTRIES = 50^2.
LAYOUT_EDGES = [(3, 31), (5, 7), (7, 3), (11, 1), (31, 36), (41, 20), (61, 9), (127, 2),
                (46337, 1), (3, 50), (11, 50)]


@st.composite
def layout_cases(draw):
    """A matrix on either side of a layout edge, of rank drawn up to its
    size: F_2 rows of 1 to 300 columns, an odd-p edge of ``LAYOUT_EDGES``
    with one more or one less column than rows, or any shape at p = 65521."""
    kind = draw(st.sampled_from(["f2", "edge", "65521"]))
    if kind == "f2":
        p, d, e = 2, draw(st.integers(1, 24)), draw(st.integers(1, 300))
    elif kind == "edge":
        p, edge = draw(st.sampled_from(LAYOUT_EDGES))
        d = edge + draw(st.integers(0, 1))
        e = max(1, d + draw(st.integers(-1, 1)))
    else:
        p, d, e = 65521, draw(st.integers(1, 40)), draw(st.integers(1, 40))
    r = draw(st.integers(0, min(d, e)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.integers(-2 * p, 2 * p, (d, r))
    return p, (A @ rng.integers(0, p, (r, e))).astype(np.int64)


def test_layout_edges_straddle_a_switch():
    for p, d in LAYOUT_EDGES:
        assert _linalg._lanes(p, d, d) != _linalg._lanes(p, d + 1, d + 1)


@settings(max_examples=150, deadline=None)
@given(layout_cases())
def test_rank_mod_at_the_layout_edges(case):
    """rank_mod counts pivots on the reduced rows without unpacking them; the
    count must be the rank of the reference, on both sides of every layout
    edge, for the matrix and its transpose."""
    p, M = case
    assert _linalg.rank_mod(M, p) == _linalg.rank_mod(M.T, p) == naive_rank(M.tolist(), p)


@pytest.mark.parametrize("width", [1, 7, 9, 65, 255, 300])
def test_f2_rows_of_any_width(width):
    # one packed byte holds 8 columns: widths off a multiple of 8 leave
    # padding bits, and rows wider than 64 columns outgrow a machine word
    rng = np.random.default_rng(width)
    for height in (1, 13, 70, 120):
        inner = rng.integers(0, height + 1)
        # entries outside [0, 2), negative ones too, check the reduction
        assert_rank_matches(rng.integers(-4, 4, (height, width)), 2)
        A = rng.integers(-4, 4, (height, inner))
        assert_rank_matches(A @ rng.integers(0, 2, (inner, width)), 2)


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
    # the numpy loop, in the narrowest dtype that holds p + size*p^2
    assert path(p, size, size) == "numpy"
    assert _linalg._narrowest_int(p + size * p * p) == dtype
    M = ldu(p, size, size - 3, size)
    assert _linalg.rank_mod(M, p) == size - 3
    assert_rank_matches(M, p)


# --- the packed odd-p rows ----------------------------------------------------


@pytest.mark.parametrize(
    "p,d,e,dtype",
    [
        # packed lanes: big-endian unsigned, 16 bits while 2B + 2 <= 16
        (3, 5, 5, ">u2"),
        (11, 9, 9, ">u4"),
        (3, 25, 25, ">u2"),
        # numpy: 125*125 entries are past the packed limit, and at p = 65521
        # the bound needs more than 64-bit lanes
        (3, 125, 125, np.int16),
        (65521, 40, 40, np.int64),
        # no columns: 0-byte F_2 rows, and empty lanes for odd p
        (2, 3, 0, np.uint8),
        (3, 3, 0, ">u2"),
    ],
)
def test_each_shape_takes_its_path(p, d, e, dtype):
    M = np.random.default_rng(d).integers(0, p, (d, e))
    assert path(p, d, e) == LAYOUTS[np.dtype(dtype)]
    if d == e:
        M = ldu(p, d, d - 2, d)
        assert _linalg.rank_mod(M, p) == d - 2
    if d * e <= 1600:
        assert_rank_matches(M, p)


@pytest.mark.parametrize(
    "p,d,e,dtype",
    [
        # 2 + 31*2^2 < 2^7 <= 2 + 32*2^2: 16-bit lanes up to 31 x 31 at p = 3
        (3, 31, 31, ">u2"),
        (3, 32, 32, ">u4"),
        # d*max(d, e) <= 2500 takes the packed rows, tall matrices included
        (3, 50, 50, ">u4"),
        (3, 51, 51, np.int16),
        (3, 50, 8, ">u2"),
        (3, 51, 8, np.int16),
        (3, 8, 312, ">u2"),
        (3, 8, 313, np.int16),
        # 46336 + 46336^2 < 2^31 <= 46336 + 2*46336^2: 64-bit lanes at 1 x 1
        (46337, 1, 1, ">u8"),
        (46337, 2, 2, np.int64),
    ],
)
def test_lanes_switch_at_the_bound(p, d, e, dtype):
    M = np.random.default_rng(d * e).integers(0, p, (d, e))
    M[-1] = M[0]  # one dependent row, below the first pivot row
    assert path(p, d, e) == LAYOUTS[np.dtype(dtype)]
    assert_rank_matches(M, p)


def growth_matrix(p, k, v0):
    """(k + 1) x (k + 1): row i < k is 1 at column i and p - 1 at column k,
    row k is 1 at columns 0 .. k - 1 and v0 at column k. Each of the first k
    pivots adds (p - 1)^2 to row k's last entry, which reaches
    v0 + k*(p - 1)^2 unreduced before it is reduced as a pivot row: the most
    that any pivot row of a (k + 1)-column matrix can hold."""
    M = np.eye(k + 1, dtype=np.int64)
    M[:k, k] = p - 1
    M[k, :k] = 1
    M[k, k] = v0
    return M


@pytest.mark.parametrize(
    "p,k,lane",
    [
        # the Barrett floor with s one bit short is wrong for one v0 each
        (7, 19, 32),
        (13, 6, 32),
        (31, 3, 32),
        # 2B + 2 is the lane width itself
        (3, 30, 16),
        (31, 35, 32),
        (32749, 1, 64),
    ],
)
def test_packed_reduction_at_the_largest_entries(p, k, lane):
    assert _linalg._lanes(p, k + 1, k + 1)[0] == lane
    for v0 in sorted({*range(min(p, 64)), p - 2, p - 1}):
        assert_rank_matches(growth_matrix(p, k, v0), p)


# --- narrow inputs -----------------------------------------------------------


def int16_copy(M, p):
    """M mod p as int16, in residues of least absolute value: below 2^15 in
    absolute value for every p < 2^16, negative ones included."""
    R = M % p
    return np.where(R > p // 2, R - p, R).astype(np.int16)


@st.composite
def systems(draw):
    p, A = draw(products())
    seed = draw(st.integers(0, 2**32 - 1))
    x0 = np.random.default_rng(seed).integers(0, p, A.shape[1])
    return p, A, x0


@settings(max_examples=200)
@given(systems())
def test_int16_input_matches_int64(case):
    """rank_mod reads a narrow signed matrix in its own dtype (the rank test
    hands it int16) with the rank of its int64 copy, p = 65521 included,
    where p itself does not fit int16; so does [A | b] for a b in A's
    column space and for a random b."""
    p, A, x0 = case
    A16 = int16_copy(A, p)
    before = A16.copy()
    assert _linalg.rank_mod(A16, p) == _linalg.rank_mod(A, p) == naive_rank(A.tolist(), p)
    rng = np.random.default_rng(int(x0.sum()))
    for b in (A @ x0, rng.integers(0, p, A.shape[0])):
        Ab = np.column_stack([A, b])
        Ab16 = np.column_stack([A16, int16_copy(b, p)])
        assert _linalg.rank_mod(Ab16, p) == _linalg.rank_mod(Ab, p) == naive_rank(Ab.tolist(), p)
    assert np.array_equal(A16, before)


def test_unsigned_input_keeps_its_values():
    # uint16 entries up to p - 1 = 65520, as the Frobenius cache stores them:
    # read as int16 in place they would turn negative and change mod p
    p = 65521
    M = ldu(p, 40, 37, 5)
    U = M.astype(np.uint16)
    assert U.max() > 2**15
    assert _linalg.rank_mod(U, p) == 37
    assert_rank_matches(U, p)


# --- the exact product mod p -------------------------------------------------


@st.composite
def float_operands(draw):
    """(A, B, p): A of shape (m, K), B of shape (K, r) or (K,), entries in
    [0, p), int64, uint16 or (p < 256) uint8 as the Frobenius cache stores
    them, B possibly a transposed (non-contiguous) view,
    A possibly already cast by ``cast_exact``. p = 251 switches from float32
    to float64 between K = 268 and 269."""
    p = draw(st.sampled_from([2, 3, 251, 65521]))
    K = draw(st.one_of(st.integers(1, 300), st.integers(300, 3000)))
    m, r = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    dtype = draw(st.sampled_from([np.int64, np.uint16] + [np.uint8] * (p < 256)))
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


@pytest.mark.parametrize(
    "p,bits,dtype", [(251, 24, np.float32), (4093, 24, np.float32), (65521, 53, np.float64)]
)
def test_matmul_mod_is_exact_just_below_each_bound(p, bits, dtype):
    # the largest K with K*(p - 1)^2 < 2^bits, and every entry p - 1 but the
    # last of each row of A and column of B, so that entry (i, j) is
    # (K - 1)(p - 1)^2 + a_i*b_j: sums up to the bound itself, where the
    # float reduction has the least room (C/p is within a unit in the last
    # place of 1/p), checked against Python ints
    K = ((1 << bits) - 1) // (p - 1) ** 2
    size = max(2, min(64, (1 << 21) // K))  # rows of A and columns of B
    last = np.random.default_rng(p).integers(0, p, (2, size))
    last[:, 0] = p - 1
    A = np.full((size, K), p - 1, dtype=np.uint16)
    B = np.full((K, size), p - 1, dtype=np.uint16)
    A[:, -1], B[-1] = last
    assert _linalg.cast_exact(A, p).dtype == dtype
    want = [
        [((K - 1) * (p - 1) ** 2 + int(a) * int(b)) % p for b in last[1]] for a in last[0]
    ]
    assert _linalg.matmul_mod(A, B, p).tolist() == want


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


def mod_m(field, r):
    """Coordinates of the polynomial r(y) (coefficients low to high) in
    F_q = F_p[y]/(m(y)): schoolbook long division by the monic m, top down."""
    p, k, m = field.p, field.k, field.base_modulus
    r = list(r)
    for top in range(len(r) - 1, k - 1, -1):
        c = r[top]
        for i, v in enumerate(m):
            r[top - k + i] -= c * v
    return [v % p for v in (r + [0] * k)[:k]]


def unit(size, t):
    return [int(i == t) for i in range(size)]


@pytest.mark.parametrize("q", [4, 8, 9, 27, 49, 256])
def test_y_powers_are_remainders_mod_m(q):
    F = base_field(q)
    k = F.k
    if q == 8:
        assert F.base_modulus == (1, 1, 0, 1)  # the canonical y^3 + y + 1
    want = [mod_m(F, unit(t + 1, t)) for t in range(2 * k - 1)]
    assert _linalg.y_powers(F).tolist() == want
    assert _linalg.y_powers(F).dtype == np.int64


@pytest.mark.parametrize("q", [8, 9])
def test_block_columns_are_products_with_y_powers(q):
    """Column b of c's block is c*y^b, by long division and by the product
    of ``FieldElement`` in the other order, which reads y^b's block."""
    F = base_field(q)
    k = F.k
    for c in F.elements():
        block = _polys._block(F, c.coeffs)
        for b in range(k):
            column = block[:, b].tolist()
            assert column == mod_m(F, [0] * b + list(c.coeffs))
            assert tuple(column) == (F.element(tuple(unit(k, b))) * c).coeffs
