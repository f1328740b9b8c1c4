"""Linear algebra over F_p on integer arrays.

Every F_q-linear map in the package, q = p^k, is handled as the F_p-linear
map it also is. F_q is F_p[y]/(m(y)) (F_p itself is F_p[y]/(y), k = 1), and a
vector of d elements of F_q is the flat vector of their d*k coordinates:
index j*k + l holds the coefficient of y^l in slot j. ``ExtElement.coords``
stores an element of F_{q^n} this way (slot j is the coefficient of z^j), so
these matrices act on it directly. ``lift`` turns an F_q matrix into the F_p
matrix of the same map. ``rank_mod`` is the one Gaussian elimination (the
rank test of a linearized polynomial). It only counts pivots, on rows in one
of three layouts picked from p and the shape alone: bits over F_2 (the
layout of M4RI, Albrecht-Bard-Hart, ACM TOMS 2010), and for odd p, with
reduction mod p delayed, byte-aligned lanes reduced by a lane-wise Barrett
step (Granlund-Montgomery, PLDI 1994) or numpy's narrowest signed dtype.

``matmul_mod`` is the one exact product mod p of two F_p matrices, in float
BLAS, reduced mod p in float before its one cast to int64 (the proof is in
its docstring); the oracle, the narrow tensor path and ``pmulmod`` keep
int64.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import InternalError


@lru_cache(maxsize=None)
def y_powers(field) -> np.ndarray:
    """(2k - 1) x k int64: row t holds the coordinates of y^t in F_q =
    F_p[y]/(m(y)), m the monic ``field.base_modulus`` (y for F_p itself)."""
    p, base_mod = field.p, field.base_modulus or (0, 1)
    k = len(base_mod) - 1
    powers = [[1] + [0] * (k - 1)]
    for _ in range(2 * k - 2):
        prev = powers[-1]
        powers.append(
            [(c - prev[-1] * m) % p for c, m in zip([0] + prev[:-1], base_mod)]
        )
    return np.array(powers, dtype=np.int64)


@lru_cache(maxsize=None)
def mul_tensor(field) -> np.ndarray:
    """T[l, a, b] = coordinate l of y^a * y^b: row a + b of ``y_powers``."""
    k = field.k
    return y_powers(field)[np.add.outer(np.arange(k), np.arange(k))].transpose(2, 0, 1)


def lift(field, M) -> np.ndarray:
    """F_p matrix (d*k x e*k) of the F_q-linear map with F_q matrix M.

    ``M`` has shape (d, e, k): entry (i, j) of the F_q matrix by its k
    coordinates. An entry c acts on each k-block through the k x k matrix of
    multiplication by c, read off the multiplication tensor of F_q. The
    result is C-contiguous, so its rows split into k-blocks without a copy.
    """
    M = np.asarray(M, dtype=np.int64)
    d, e, k = M.shape
    T = mul_tensor(field)
    out = np.einsum("ija,lab->iljb", M, T).reshape(d * k, e * k)
    out %= field.p
    return out


def cast_exact(A, p: int) -> np.ndarray:
    """A in the float dtype in which ``matmul_mod`` multiplies it, its last
    axis the inner dimension K, so that a loop casts a fixed operand once.
    Past the float64 bound of ``matmul_mod`` it raises ``InternalError``."""
    K = np.shape(A)[-1]
    bound = K * (p - 1) ** 2
    if bound >= 1 << 53:
        raise InternalError(f"_linalg: no exact float product over F_{p} of inner dimension {K}")
    return np.asarray(A, dtype=np.float32 if bound < 1 << 24 else np.float64)


def matmul_mod(A, B, p: int) -> np.ndarray:
    """A @ B mod p as int64, for arrays A and B of entries in [0, p), by
    float BLAS (the FFLAS-FFPACK bound, Dumas-Giorgi-Pernet, ACM TOMS 2008).

    An entry sums K products, K the last axis of A, each at most (p - 1)^2,
    so every partial sum, in any order BLAS adds them, is an integer at most
    K*(p - 1)^2. float32 holds every integer below 2^24 and float64 every
    one below 2^53, so the product runs in float32 while K*(p - 1)^2 < 2^24
    and in float64 while it is below 2^53 (every K < 2^21 for p < 2^16);
    past that ``cast_exact`` raises ``InternalError``.

    Each entry C of the product is reduced in float, as C - p*floor(C/p), and
    the result is cast to int64 once. That is exact. Let t = 24 (float32) or
    53 (float64) be the significant bits, so C < 2^t. The division is
    correctly rounded: for 2^(e - 1) <= C/p < 2^e its error is at most half a
    unit in the last place, 2^(e - t - 1) <= (C/p)/2^t < 1/p. Write
    C = m*p + r with 0 <= r < p. For r = 0, C/p = m is exact. Otherwise C/p
    lies strictly between m and m + 1, both representable, and
    (m + 1) - C/p = (p - r)/p >= 1/p, so it rounds to a value in [m, m + 1)
    and floor(C/p) = m. Then p*m and C - p*m are integers below 2^t, and
    exact.
    """
    A = cast_exact(A, p)
    out = A @ np.asarray(B, dtype=A.dtype)
    quotient = out / p
    np.floor(quotient, out=quotient)
    quotient *= p
    out -= quotient
    return out.astype(np.int64)


# An odd-p matrix of d rows and e columns eliminates on packed rows when
# d*max(d, e) is at most this and its lanes fit 64 bits. The packed path
# pays a few Python int operations per row and column, the numpy loop about
# ten numpy calls per column, so the row count limits the packed path even
# on narrow matrices. Measured per call at p = 3, 5 and 11 (BENCH_29.json),
# packed rows win on square matrices up to 50 x 50, are about even at
# 56 x 56 and lose from 64 x 64 on. At the edge of the limit a tall 50 x 10
# matrix is up to 1.25x slower packed and a wide 5 x 500 one at p = 11 1.5x;
# the library's rank matrices are square.
_PACKED_ENTRIES = 2500


def _lane_bound(L: int) -> int:
    """The largest B such that ``_barrett`` is exact on lanes of L bits below
    2^B: L must be at least 2B + 2."""
    return (L - 2) // 2


@lru_cache(maxsize=256)
def _barrett(p: int, L: int, B: int, lanes: int) -> tuple[int, int, int]:
    """(m, s, low) of the lane-wise Barrett step v - p*((v*m >> s) & low),
    which reduces mod p every lane of a row of ``lanes`` lanes of L bits,
    each below 2^B, B <= ``_lane_bound(L)``: t = bitlen(p - 1), s = B + t,
    m = ceil(2^s/p), and ``low`` the low L - s bits of every lane.

    The step is exact in every lane v < 2^B. Write m*p = 2^s + r with
    0 <= r < p: v*m/2^s = v/p + v*r/(p*2^s), and v*r < 2^(B + t) = 2^s keeps
    the second term below 1/p, so the floor is v // p. Lanes never carry:
    p > 2^(t - 1), so v*m < 2^B*(2^s/p + 1) < 2^(2B + 1) + 2^B, and 2B + 2
    bits hold it; shifted by s, v // p sits in the low L - s bits of its own
    lane, under the low bits of the lane above, which ``low`` drops.
    """
    s = B + (p - 1).bit_length()
    low = ((1 << L * lanes) - 1) // ((1 << L) - 1) * ((1 << L - s) - 1)
    return -(-(1 << s) // p), s, low


def _lanes(p: int, d: int, e: int) -> tuple[int, int] | None:
    """(L, B) of the packed odd-p elimination of a d x e matrix, or None when
    it runs in numpy: d*max(d, e) above ``_PACKED_ENTRIES``, or no lane wide
    enough. B is the bit length of the entry bound p - 1 + min(d, e)*(p - 1)^2
    and L the narrowest of 16, 32 and 64 bits whose ``_lane_bound`` is at
    least B."""
    if d * max(d, e) > _PACKED_ENTRIES:
        return None
    B = (p - 1 + min(d, e) * (p - 1) ** 2).bit_length()
    return next(((L, B) for L in (16, 32, 64) if B <= _lane_bound(L)), None)


def _row_ints(packed: np.ndarray) -> list[int]:
    """Each row of a 2-D unsigned array as one Python int, its bytes read
    big-endian: the first column is the most significant."""
    size = packed.shape[1] * packed.itemsize
    data = packed.tobytes()
    return [int.from_bytes(data[i * size : (i + 1) * size], "big") for i in range(len(packed))]


def _narrowest_int(bound: int) -> type:
    """The narrowest of int16, int32 and int64 that holds ``bound``."""
    return np.int16 if bound < 1 << 15 else np.int32 if bound < 1 << 31 else np.int64


def rank_mod(rows: np.ndarray, p: int) -> int:
    """Rank of an integer matrix over F_p: the pivots that Gaussian
    elimination finds, counted on its own rows, which are never unpacked.
    ``rows`` is not modified; a signed integer array is read in its own
    dtype, anything else as int64.

    Over F_2 each row is packed by ``np.packbits`` into one Python int, its
    first column the leading bit, and is XOR-reduced against the pivot rows
    found so far, held in a list indexed by their leading bit; what is left
    nonzero is a new pivot row.

    For odd p, columns are taken in order, and the pivot is the first row at
    or below the current one whose entry in the column is nonzero mod p. It
    is reduced mod p and scaled to 1 there; every row below it loses a
    multiple of it, which makes the entry a multiple of p, and every other
    entry stays unreduced. The row it passes moves to its place, and is 0
    mod p in the column already. ``_lanes`` picks the layout:

    - Packed rows. Each row is one Python int of e lanes of L bits, the first
      column the most significant. A row below the pivot row v with entry
      c != 0 mod p there takes c' = p - c times v in one multiply-add, so an
      entry grows by at most (p - 1)^2 a step, stays nonnegative, and after
      at most min(d, e) steps lies below 2^B, B the bit length of
      p - 1 + min(d, e)*(p - 1)^2. The pivot row is reduced by the Barrett
      step of ``_barrett``; scaled, its entries are below (p - 1)^2 < 2^B,
      and the step reduces it again.
    - The numpy loop. Only the pivot column and the pivot row are reduced
      mod p; every row below the pivot loses c times the pivot row in one
      dense update, so after s steps |entry| < p + s*p^2. The rows are
      ``rows`` mod p in the narrowest of int16, int32 and int64 that holds
      p + min(d, e)*p^2 (int64 does for p < 2^16 and min(d, e) < 2^31),
      reduced in the wider dtype.
    """
    if not (isinstance(rows, np.ndarray) and rows.dtype.kind == "i"):
        rows = np.asarray(rows, dtype=np.int64)
    d, e = rows.shape
    if p == 2:
        # packbits reads a bool array directly and converts any other dtype first
        packed = np.packbits((rows & 1).astype(bool), axis=1)
        lead = [0] * (8 * packed.shape[1] + 1)  # bit length -> the pivot row with that leading bit
        for v in _row_ints(packed):
            while v:
                bits = v.bit_length()
                u = lead[bits]
                if not u:
                    lead[bits] = v
                    break
                v ^= u
        return len(lead) - lead.count(0)
    rank = 0
    if lanes := _lanes(p, d, e):
        L, B = lanes
        R = _row_ints((rows % p).astype(f">u{L // 8}"))
        m, s, low = _barrett(p, L, B, e)
        lane = (1 << L) - 1
        for col in range(e):
            if rank == d:
                break
            shift = (e - 1 - col) * L
            for t in range(rank, d):
                if a := (R[t] >> shift & lane) % p:
                    break
            else:
                continue
            v = R[t]
            v -= p * (v * m >> s & low)
            if a != 1:
                v *= pow(a, -1, p)
                v -= p * (v * m >> s & low)
            R[t] = R[rank]
            for i in range(t + 1, d):
                if c := (R[i] >> shift & lane) % p:
                    R[i] += (p - c) * v
            rank += 1
        return rank
    dtype = _narrowest_int(p + min(d, e) * p * p)
    W = (rows.astype(np.promote_types(rows.dtype, dtype), copy=False) % p).astype(dtype, copy=False)
    for col in range(e):
        if rank == d:
            break
        c = W[rank:, col] % p
        nz = c.nonzero()[0]
        if nz.size == 0:
            continue
        t = int(nz[0])
        pivot = W[rank + t, col:] % p
        a = int(c[t])
        if a != 1:
            pivot = pivot * pow(a, -1, p) % p
        if t:
            W[rank + t] = W[rank]
            c[t] = c[0]
        W[rank + 1 :, col:] -= c[1:, None] * pivot
        rank += 1
    return rank
