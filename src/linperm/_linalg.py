"""Linear algebra over F_p on int64 arrays.

Every F_q-linear map in the package, q = p^k, is handled as the F_p-linear
map it also is. F_q is F_p[y]/(m(y)) (F_p itself is F_p[y]/(y), k = 1), and a
vector of d elements of F_q is the flat vector of their d*k coordinates:
index j*k + l holds the coefficient of y^l in slot j. ``ExtElement.coords``
stores an element of F_{q^n} this way (slot j is the coefficient of z^j), so
these matrices act on it directly. ``lift`` turns an F_q matrix into the F_p
matrix of the same map; ``rank_mod`` does the elimination.

Entries are kept reduced mod p < 2^16, so a sum of fewer than 2^31 products
of two entries stays below 2^63 and int64 never overflows.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def mul_tensor(p: int, base_mod: tuple) -> np.ndarray:
    """T[l, a, b] = coordinate l of y^a * y^b in F_p[y]/(base_mod), base_mod monic."""
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
    multiplication by c, read off the multiplication tensor of F_q.
    """
    M = np.asarray(M, dtype=np.int64)
    d, e, k = M.shape
    T = mul_tensor(field.p, field.base_modulus or (0, 1))
    return np.einsum("ija,lab->iljb", M, T).reshape(d * k, e * k) % field.p


def rank_mod(rows: np.ndarray, p: int) -> int:
    """Rank of an integer matrix over F_p by Gaussian elimination."""
    m = rows.copy() % p
    if m.size == 0:
        return 0
    r = 0
    for col in range(m.shape[1]):
        pivots = np.nonzero(m[r:, col])[0]
        if len(pivots) == 0:
            continue
        piv = r + int(pivots[0])
        m[[r, piv]] = m[[piv, r]]
        inv = pow(int(m[r, col]), -1, p)
        m[r, col:] = (m[r, col:] * inv) % p
        sub = m[r + 1:, col:]
        if sub.size:
            m[r + 1:, col:] = (sub - np.outer(m[r + 1:, col], m[r, col:])) % p
        r += 1
        if r == m.shape[0]:
            break
    return r
