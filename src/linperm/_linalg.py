"""Linear algebra over F_p on int64 arrays.

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

Reduction mod p is delayed: p < 2^16, so an int64 holds a sum of fewer than
2^31 products of two reduced entries (each below p^2 < 2^32) without
overflow, and the kernels reduce only what a decision reads. ``_eliminate``
states its bound, p + s*p^2 after s steps.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


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


def _eliminate(m: np.ndarray, p: int) -> list[int]:
    """Gaussian elimination over F_p in place on ``m``, int64 with entries in
    [0, p); returns the pivot columns. Afterwards row i < len(pivots) is
    congruent mod p to the reduced pivot row of ``echelon_mod``.

    Columns are taken in order, and the pivot is the first row at or below
    the current one whose entry in the column is nonzero mod p. Only the
    pivot column and the pivot row are reduced mod p; the rows below that
    have a nonzero entry in the pivot column lose a multiple of the pivot
    row, and every other entry stays unreduced. One step moves an entry by
    less than p^2, so after s steps |entry| < p + s*p^2: with p < 2^16 int64
    never overflows for min(d, e) < 2^31.
    """
    d, e = m.shape
    pivots = []
    for col in range(e):
        r = len(pivots)
        if r == d:
            break
        c = m[r:, col] % p
        nz = np.flatnonzero(c)
        if nz.size == 0:
            continue
        t = int(nz[0])
        pivot = m[r + t, col:] % p * pow(int(c[t]), -1, p) % p
        if t:
            # row r takes the pivot row's place; it is zero in this column
            # and needs no update
            m[r + t] = m[r]
        m[r, col:] = pivot
        rest = nz[1:]
        m[r + rest, col:] -= c[rest, None] * pivot
        pivots.append(col)
    return pivots


def echelon_mod(rows: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Row echelon form of an integer matrix over F_p: (E, pivots).

    E has one row per pivot, entries in [0, p): row i is 0 before column
    pivots[i] and 1 there, and the rows span the row space of ``rows`` mod
    p. ``rows`` is not modified.
    """
    m = np.asarray(rows, dtype=np.int64) % p
    pivots = _eliminate(m, p)
    return m[: len(pivots)] % p, pivots


def rank_mod(rows: np.ndarray, p: int) -> int:
    """Rank of an integer matrix over F_p: the pivot count of ``_eliminate``,
    without the final reduction of ``echelon_mod``. ``rows`` is not
    modified."""
    return len(_eliminate(np.asarray(rows, dtype=np.int64) % p, p))


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
