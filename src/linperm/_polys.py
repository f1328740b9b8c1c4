"""Dense polynomial arithmetic over a finite field.

Coefficient vectors are little-endian tuples of field elements with no
trailing zeros (the zero polynomial is the empty tuple).  Functions are
generic over any coefficient field exposing ``zero()``/``one()`` and whose
elements support ``+ - * ==`` and ``.inverse()``; prime fields (``field.k
== 1``) get numpy-backed fast paths for plain and cyclic products.
Products modulo a fixed polynomial and the irreducibility test run on int64
arrays over F_p for every F_q (see the kernels section below).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import _linalg


def _is_prime_field(field) -> bool:
    return getattr(field, "k", 0) == 1


def _ints(coeffs):
    return np.array([c.coeffs[0] for c in coeffs], dtype=np.int64)


def _elems(field, arr):
    return ptrim(field, tuple(field.element((int(v),)) for v in arr))


def ptrim(field, coeffs):
    coeffs = tuple(coeffs)
    zero = field.zero()
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == zero:
        end -= 1
    return coeffs[:end]


def pone(field):
    return (field.one(),)


def pdeg(coeffs) -> int:
    return len(coeffs) - 1


def padd(field, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return ptrim(field, out)


def pneg(field, a):
    return tuple(-c for c in a)


def psub(field, a, b):
    return padd(field, a, pneg(field, b))


def pscale(field, a, s):
    if s == field.zero():
        return ()
    return ptrim(field, tuple(c * s for c in a))


def pmul(field, a, b):
    if not a or not b:
        return ()
    if _is_prime_field(field):
        conv = np.convolve(_ints(a), _ints(b)) % field.p
        return _elems(field, conv)
    zero = field.zero()
    out = [zero] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == zero:
            continue
        for j, cb in enumerate(b):
            out[i + j] = out[i + j] + ca * cb
    return ptrim(field, out)


def pdivmod(field, a, b):
    """Quotient and remainder of a by b (b nonzero)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return (), a
    zero = field.zero()
    lead_inv = b[-1].inverse()
    rem = list(a)
    quo = [zero] * (len(a) - len(b) + 1)
    for shift in range(len(a) - len(b), -1, -1):
        c = rem[shift + len(b) - 1] * lead_inv
        if c == zero:
            continue
        quo[shift] = c
        for i, bc in enumerate(b):
            rem[shift + i] = rem[shift + i] - c * bc
    return ptrim(field, quo), ptrim(field, rem)


def pmod(field, a, b):
    return pdivmod(field, a, b)[1]


def pmonic(field, a):
    if not a:
        return ()
    return pscale(field, a, a[-1].inverse())


def pgcd(field, a, b):
    while b:
        a, b = b, pmod(field, a, b)
    return pmonic(field, a)


def pegcd(field, a, b):
    """Extended gcd: returns (g, u, v) with u*a + v*b = g and g monic."""
    r0, r1 = a, b
    u0, u1 = pone(field), ()
    v0, v1 = (), pone(field)
    while r1:
        q, r = pdivmod(field, r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, psub(field, u0, pmul(field, q, u1))
        v0, v1 = v1, psub(field, v0, pmul(field, q, v1))
    if not r0:
        return (), u0, v0
    lead_inv = r0[-1].inverse()
    return (
        pscale(field, r0, lead_inv),
        pscale(field, u0, lead_inv),
        pscale(field, v0, lead_inv),
    )


# --- F_q kernels on int64 arrays ----------------------------------------------
#
# F_q = F_p[y]/(m(y)), with F_p itself as F_p[y]/(y). A residue
# c_0 + c_1 x + ... + c_{d-1} x^{d-1} modulo a monic f of degree d over F_q
# packs into the int vector of length d*s, s = 2k - 1, with the k coordinates
# of c_j at j*s and zeros after them. Convolving two packed vectors then
# multiplies the polynomials with no overlap between slots (y-degrees stay
# below s), and one matrix maps the convolution to the packed residue of the
# product. For k = 1 a packed vector is the plain coefficient vector.
# Callers hold residues by their flat coordinates (slot j at j*k, as in
# ``ExtElement.coords``); pmulmod, ppowmod and pmul_matrix pack and unpack
# them, so the stride 2k - 1 never leaves this module.


def _pack(k: int, flat) -> np.ndarray:
    """Packed int vector of a residue given by its flat coordinates."""
    out = np.zeros((len(flat) // k, 2 * k - 1), dtype=np.int64)
    out[:, :k] = np.array(flat, dtype=np.int64).reshape(-1, k)
    return out.ravel()


def _unpack(k: int, packed: np.ndarray) -> tuple:
    """Flat coordinates, as a tuple of ints, of a packed residue."""
    return tuple(packed.reshape(-1, 2 * k - 1)[:, :k].ravel().tolist())


@lru_cache(maxsize=16)  # most keys are candidates of an irreducibility search
def _reduction_matrix(p: int, mod: tuple, base_mod: tuple) -> np.ndarray:
    """Matrix taking np.convolve of two packed residues to the packed residue
    of their product, modulo the monic ``mod`` over F_p[y]/(base_mod).

    ``mod`` lists its coefficients by their coordinates. Column e*s + t holds
    the packed residue of x^e y^t.
    """
    T = _linalg.mul_tensor(p, base_mod)
    k = T.shape[0]
    s, d = 2 * k - 1, len(mod) - 1
    low = np.array(mod[:-1], dtype=np.int64).reshape(d, k)
    # r[e] = x^e mod f: multiplying by x shifts the slots and folds the top
    # one back in through x^d = -low(x)
    r = np.zeros((2 * d, d, k), dtype=np.int64)
    r[np.arange(d), np.arange(d), 0] = 1
    for e in range(d, 2 * d):
        r[e, 1:] = r[e - 1, :-1]
        r[e] = (r[e] - np.einsum("lab,a,jb->jl", T, r[e - 1, -1], low)) % p
    # y^t = y^a * y^(t-a) for t < s
    y_pows = np.array([T[:, min(t, k - 1), t - min(t, k - 1)] for t in range(s)])
    red = np.zeros((d, s, 2 * d, s), dtype=np.int64)
    red[:, :k] = np.einsum("lab,eja,tb->jlet", T, r, y_pows) % p
    return red.reshape(d * s, 2 * d * s)


def preduction(field, mod) -> np.ndarray:
    """_reduction_matrix for a monic ``mod`` with coefficients in ``field``."""
    return _reduction_matrix(
        field.p, tuple(c.coeffs for c in mod), field.base_modulus or (0, 1)
    )


def mulmod(p: int, red: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Packed product a*b reduced by ``red``: the one convolve-and-reduce kernel."""
    conv = np.convolve(a, b) % p
    padded = np.zeros(red.shape[1], dtype=np.int64)
    padded[: len(conv)] = conv
    return (red @ padded) % p


def _powmod(p: int, red: np.ndarray, a: np.ndarray, e: int) -> np.ndarray:
    """Packed a^e (e >= 0) by square-and-multiply; red[:, 0] is the residue 1."""
    acc = red[:, 0]
    while e > 0:
        if e & 1:
            acc = mulmod(p, red, acc, a)
        a = mulmod(p, red, a, a)
        e >>= 1
    return acc


def pmulmod(field, red: np.ndarray, a, b) -> tuple:
    """Flat coordinates of a*b mod f, a and b flat; ``red`` = preduction(f)."""
    k = field.k
    return _unpack(k, mulmod(field.p, red, _pack(k, a), _pack(k, b)))


def ppowmod(field, red: np.ndarray, a, e: int) -> tuple:
    """Flat coordinates of a^e modulo f (e >= 0), as ``pmulmod``."""
    k = field.k
    return _unpack(k, _powmod(field.p, red, _pack(k, a), e))


def ppower_matrix(field, red: np.ndarray, start: np.ndarray, step: np.ndarray):
    """F_p matrix (k*d square), on flat coordinates, of the F_q-linear map of
    F_q[x]/(f) that sends x^j to start * step^j; ``red`` is f's reduction
    matrix and ``start``, ``step`` are packed residues."""
    p, k = field.p, field.k
    s = 2 * k - 1
    d = red.shape[0] // s
    cols = [start]
    for _ in range(d - 1):
        cols.append(mulmod(p, red, cols[-1], step))
    coords = np.array(cols).reshape(d, d, s)[:, :, :k].transpose(1, 0, 2)
    return _linalg.lift(field, coords)


def pmul_matrix(field, red: np.ndarray, c) -> np.ndarray:
    """F_p matrix of h -> c*h on F_q[x]/(f), c flat: x^j goes to c*x^j."""
    k = field.k
    return ppower_matrix(field, red, _pack(k, c), red[:, 2 * k - 1])


def pfrobenius_matrix(field, mod, i: int) -> np.ndarray:
    """F_p matrix of h -> h^(q^i) on F_q[x]/(mod): x^j goes to w^j, w = x^(q^i)."""
    p, s = field.p, 2 * field.k - 1
    red = preduction(field, mod)
    one, x = red[:, 0], red[:, s]  # the residues of 1 and x
    return ppower_matrix(field, red, one, _powmod(p, red, x, field.q**i))


def _prime_factors(n: int):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def pis_irreducible(field, f) -> bool:
    """Irreducibility test for a monic polynomial over F_q, q = p^k.

    With Q the F_p matrix of h -> h^q on F_q[x]/(f), of size k*d:
    - squarefree check: x^(q^d) = x mod f iff f is squarefree and each of its
      irreducible factors has degree dividing d (x^(q^d) - x is their product);
    - Berlekamp's criterion: for squarefree f the fixed space of Q has one F_q
      dimension per irreducible factor, so f is irreducible iff
      k*d - rank(Q - I) == k.
    """
    d = pdeg(f)
    if d < 1:
        return False
    if d == 1:
        return True
    if f[0] == field.zero():
        return False
    p, k = field.p, field.k
    Q = pfrobenius_matrix(field, f, 1)
    x = np.zeros(k * d, dtype=np.int64)
    x[k] = 1
    v = x
    for _ in range(d):
        v = (Q @ v) % p
    if not np.array_equal(v, x):
        return False
    return k * d - _linalg.rank_mod(Q - np.eye(k * d, dtype=np.int64), p) == k


def pcyclic_mul(field, a, b, n: int):
    """Product of two length-n coefficient vectors modulo x^n - 1 (cyclic convolution)."""
    if _is_prime_field(field):
        conv = np.convolve(_ints(a), _ints(b))
        out = np.zeros(n, dtype=np.int64)
        for start in range(0, len(conv), n):
            chunk = conv[start : start + n]
            out[: len(chunk)] += chunk
        out %= field.p
        return tuple(field.element((int(v),)) for v in out)
    zero = field.zero()
    out = [zero] * n
    for i, ca in enumerate(a):
        if ca == zero:
            continue
        for j, cb in enumerate(b):
            out[(i + j) % n] = out[(i + j) % n] + ca * cb
    return tuple(out)
