"""Linear algebra over F_p on integer arrays.

Every F_q-linear map in the package, q = p^k, is handled as the F_p-linear
map it also is. F_q is F_p[y]/(m(y)) (F_p itself is F_p[y]/(y), k = 1), and a
vector of d elements of F_q is the flat vector of their d*k coordinates:
index j*k + l holds the coefficient of y^l in slot j. ``ExtElement.coords``
stores an element of F_{q^n} this way (slot j is the coefficient of z^j), so
these matrices act on it directly. ``lift`` turns an F_q matrix into the F_p
matrix of the same map. ``_eliminate`` is the one elimination loop:
``rank_mod`` counts its pivots (the rank test of a linearized polynomial),
``echelon_mod`` reduces its pivot rows, and ``solve_mod`` back-substitutes on
that echelon form (the minimal polynomials that factor x^n - 1).

Over F_2 a row is packed into one Python int, and a row operation is one
XOR of those ints, the bit-packed layout of M4RI (Albrecht-Bard-Hart, ACM
TOMS 2010). For odd p, reduction mod p is delayed: after s steps an entry is
below p + s*p^2 in absolute value, and the elimination runs in the narrowest
of int16, int32 and int64 that holds that bound for its matrix, and a signed
input is never widened first. Only what a decision reads is reduced.

``matmul_mod`` is the one exact product mod p of two F_p matrices, in float
BLAS; the oracle, the narrow tensor path and ``pmulmod`` keep int64.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import InternalError


@lru_cache(maxsize=None)
def mul_tensor(field) -> np.ndarray:
    """T[l, a, b] = coordinate l of y^a * y^b in F_q = F_p[y]/(m(y)), m the
    monic ``field.base_modulus`` (y for F_p itself)."""
    p, base_mod = field.p, field.base_modulus or (0, 1)
    k = len(base_mod) - 1
    powers = [[1] + [0] * (k - 1)]  # coordinates of y^t, t < 2k - 1
    for _ in range(2 * k - 2):
        prev = powers[-1]
        powers.append(
            [(c - prev[-1] * m) % p for c, m in zip([0] + prev[:-1], base_mod)]
        )
    table = np.array(powers, dtype=np.int64)
    return table[np.add.outer(np.arange(k), np.arange(k))].transpose(2, 0, 1)


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
    """
    A = cast_exact(A, p)
    out = (A @ np.asarray(B, dtype=A.dtype)).astype(np.int64)
    out %= p
    return out


def _eliminate(rows: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Gaussian elimination over F_p of the integer matrix ``rows``, which it
    does not modify: (W, pivots), where row i < len(pivots) of W is
    congruent mod p to row i of the echelon form of ``echelon_mod``. A
    signed integer array is read in its own dtype, anything else as int64.

    Over F_2 each row is packed by ``np.packbits`` into one Python int, its
    first column the leading bit, and is XOR-reduced against the pivot rows
    found so far, keyed by their leading bit; what is left nonzero is a new
    pivot row. W is the pivot rows, unpacked in pivot column order.

    For odd p, columns are taken in order, and the pivot is the first row at
    or below the current one whose entry in the column is nonzero mod p.
    Only the pivot column and the pivot row are reduced mod p; every row
    below the pivot loses a multiple of the pivot row in one dense update,
    and every other entry stays unreduced. One step moves an entry by less
    than p^2, so after s steps |entry| < p + s*p^2. W is ``rows`` mod p in the
    narrowest of int16, int32 and int64 that holds p + min(d, e)*p^2 (int64
    does for p < 2^16 and min(d, e) < 2^31), reduced in the wider dtype.
    """
    if not (isinstance(rows, np.ndarray) and rows.dtype.kind == "i"):
        rows = np.asarray(rows, dtype=np.int64)
    d, e = rows.shape
    if p == 2:
        packed = np.packbits(rows & 1, axis=1)
        size = packed.shape[1]
        data = packed.tobytes()
        lead = {}  # bit length -> the pivot row with that leading bit
        for i in range(0, d * size, size):
            v = int.from_bytes(data[i : i + size], "big")
            while v:
                bits = v.bit_length()
                if bits not in lead:
                    lead[bits] = v
                    break
                v ^= lead[bits]
        keys = sorted(lead, reverse=True)
        data = b"".join(lead[bits].to_bytes(size, "big") for bits in keys)
        W = np.frombuffer(data, dtype=np.uint8).reshape(len(keys), size)
        return np.unpackbits(W, axis=1, count=e), [8 * size - bits for bits in keys]
    bound = p + min(d, e) * p * p
    dtype = next((t for t in (np.int16, np.int32) if bound <= np.iinfo(t).max), np.int64)
    W = (rows.astype(np.promote_types(rows.dtype, dtype), copy=False) % p).astype(dtype, copy=False)
    pivots = []
    for col in range(e):
        r = len(pivots)
        if r == d:
            break
        c = W[r:, col] % p
        nz = c.nonzero()[0]
        if nz.size == 0:
            continue
        t = int(nz[0])
        pivot = W[r + t, col:] % p
        a = int(c[t])
        if a != 1:
            pivot = pivot * pow(a, -1, p) % p
        if t:
            # row r takes the pivot row's place, and its multiplier with it
            W[r + t] = W[r]
            c[t] = c[0]
        W[r, col:] = pivot
        W[r + 1 :, col:] -= c[1:, None] * pivot
        pivots.append(col)
    return W, pivots


def echelon_mod(rows: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Row echelon form of an integer matrix over F_p: (E, pivots).

    E is int64 with one row per pivot, entries in [0, p): row i is 0 before
    column pivots[i] and 1 there, and the rows span the row space of
    ``rows`` mod p. ``rows`` is not modified.
    """
    W, pivots = _eliminate(rows, p)
    return W[: len(pivots)].astype(np.int64) % p, pivots


def rank_mod(rows: np.ndarray, p: int) -> int:
    """Rank of an integer matrix over F_p: the pivot count of ``_eliminate``.
    ``rows`` is not modified."""
    return len(_eliminate(rows, p)[1])


def solve_mod(A: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """A solution x of A x = b over F_p, or None when there is none.

    Back-substitution on the echelon form of [A | b]: the system is
    inconsistent exactly when b's column holds a pivot. Free unknowns are 0.
    """
    A = np.asarray(A, dtype=np.int64)
    E, pivots = echelon_mod(np.column_stack([A, b]), p)
    e = A.shape[1]
    if pivots and pivots[-1] == e:
        return None
    x = np.zeros(e, dtype=np.int64)
    # row i is 1 at its pivot, where x is still 0, and 0 before it
    for i in range(len(pivots) - 1, -1, -1):
        x[pivots[i]] = (E[i, e] - E[i, :e] @ x) % p
    return x
