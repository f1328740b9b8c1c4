"""Dense polynomial arithmetic over F_q = F_p[y]/(m(y)), on ints mod p.

A polynomial c_0 + c_1 x + ... over F_q, q = p^k, is the flat tuple of its
coefficients' coordinates: slot j (the coefficient of x^j) holds its k
coordinates at j*k, the layout of ``ExtElement.coords`` and of ``_linalg``
(F_p itself is F_p[y]/(y), k = 1). A polynomial has no trailing zero slot, so
zero is the empty tuple; a residue mod x^n - 1 always has n slots. Every
kernel has one path for every F_q: an F_q scalar acts on a vector of slots
through its k x k block, as ``ExtElement.scale`` does, and every product is
one packed convolution (see the kernels section below).

Euclid (``pgcd``, ``pegcd``) is one loop on int64 (slots, k) arrays: the
last two remainders, with their cofactors for ``pegcd``, are divided in
place, one slice update per quotient coordinate through k x k blocks built
once per step, and reduced mod p once per step; ``_euclid`` states the int64
bound. No quotient or tuple is built per step.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import zip_longest

import numpy as np

from . import _linalg


def ptrim(field, a) -> tuple:
    """a without its trailing zero slots."""
    end = len(a)
    while end and not a[end - 1]:
        end -= 1
    return tuple(a[: end + -end % field.k])


def pone(field) -> tuple:
    return (1,) + (0,) * (field.k - 1)


def pdeg(field, a) -> int:
    return len(a) // field.k - 1


def padd(field, a, b):
    return ptrim(field, [(x + y) % field.p for x, y in zip_longest(a, b, fillvalue=0)])


def pneg(field, a):
    return tuple(-x % field.p for x in a)


def psub(field, a, b):
    return ptrim(field, [(x - y) % field.p for x, y in zip_longest(a, b, fillvalue=0)])


@lru_cache(maxsize=None)
def _tables(field) -> tuple:
    """(S, Y) for F_q: c @ S is the k x k block of the scalar c, flattened, and
    row t of Y, (2k - 1) x k, holds the coordinates of y^t."""
    T = _linalg.mul_tensor(field.p, field.base_modulus or (0, 1))
    k = field.k
    y_pows = [T[:, min(t, k - 1), t - min(t, k - 1)] for t in range(2 * k - 1)]
    return T.transpose(2, 0, 1).reshape(k, k * k), np.array(y_pows)


@lru_cache(maxsize=4096)
def _block(field, c: tuple) -> np.ndarray:
    """k x k F_p matrix of multiplication by the F_q scalar c (its coordinates)."""
    block = np.array(c, dtype=np.int64) @ _tables(field)[0] % field.p
    return block.reshape(field.k, field.k)


def _power(field, c: tuple, e: int) -> tuple:
    """Coordinates of c^e for an F_q scalar c and e >= 0 (0^0 = 1): the first
    column of c's block raised to e by square-and-multiply."""
    p = field.p
    acc, sq = np.eye(field.k, dtype=np.int64), _block(field, c)
    while e:
        if e & 1:
            acc = acc @ sq % p
        sq = sq @ sq % p
        e >>= 1
    return tuple(acc[:, 0].tolist())


@lru_cache(maxsize=4096)
def _inverse(field, c: tuple) -> tuple:
    """Coordinates of 1/c for a nonzero F_q scalar c: c^(q - 2)."""
    return _power(field, c, field.q - 2)


def _slots(k: int, a) -> np.ndarray:
    return np.array(a, dtype=np.int64).reshape(-1, k)


def _flat(rows: np.ndarray) -> tuple:
    return tuple(rows.ravel().tolist())


def pmul(field, a, b):
    if not a or not b:
        return ()
    rows = (len(a) + len(b)) // field.k - 1
    conv = _convolve(field, a, b)[: rows * (2 * field.k - 1)]
    return _flat(conv.reshape(rows, -1) @ _tables(field)[1] % field.p)


def pdivmod(field, a, b):
    """Quotient and remainder of a by b (b nonzero), by long division: each
    step subtracts c times b/lead(b), c the top slot of the remainder, through
    one (deg b + 1)k x k matrix that acts on c."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return (), tuple(a)
    p, k = field.p, field.k
    lead_inv = _block(field, _inverse(field, tuple(b[-k:])))
    monic = _slots(k, b) @ lead_inv.T % p
    # row i*k + l, applied to c, is coordinate l of c * monic[i]; rem is
    # reduced only at the end, each step adding k products of two residues
    act = (monic @ _tables(field)[0] % p).reshape(-1, k)
    width = len(b)
    rem = np.array(a, dtype=np.int64)
    quo = np.empty(len(a) - width + k, dtype=np.int64)
    for at in range(len(quo) - k, -1, -k):
        c = rem[at + width - k : at + width] % p
        quo[at : at + k] = c
        rem[at : at + width] -= act @ c
    quo = (_slots(k, quo) @ lead_inv.T % p).ravel()
    return ptrim(field, quo.tolist()), ptrim(field, (rem[: width - k] % p).tolist())


def pmod(field, a, b):
    return pdivmod(field, a, b)[1]


def _euclid(field, a, b, cofactors: bool) -> tuple:
    """Euclid's algorithm on a and b (flat, trimmed), in place: (g,) with g
    the monic gcd, or with ``cofactors`` (g, u, v) with u*a + v*b = g. For
    a = b = 0 it gives g = 0 with u = 1 and v = 0.

    Row 0 of M0 and of M1 holds a remainder and rows 1 and 2 its cofactors u
    and v, each as (slots, k) int64 coordinates: M0 and M1 are the last two
    triples of the remainder sequence. A step divides M0 by M1 in place.
    ``act[m]`` is all of M1 times y^m / lead, lead the top slot of M1's
    remainder, built once per step from k x k blocks. Then, from the top
    slot down, the top slot c of M0's remainder, read mod p, is the next
    quotient coefficient, and each nonzero coordinate c_m of c subtracts
    c_m * act[m] at that slot. That leaves M0 - Q*M1 for the quotient Q by
    M1's remainder made monic: the next triple. The lengths n0 and n1 of the
    remainders are tracked by index; c0 and c1 bound those of the cofactors.
    """
    p, k = field.p, field.k
    rows = 3 if cofactors else 1
    n0, n1 = len(a) // k, len(b) // k
    size = 2 * (n0 + n1) + 1  # the cofactors never pass n0 + n1 + 1 slots
    buf = np.zeros((2, rows, size * k), dtype=np.int64)
    buf[0, 0, : len(a)] = a
    buf[1, 0, : len(b)] = b
    if cofactors:
        buf[0, 1, 0] = buf[1, 2, 0] = 1
    M0, M1 = buf.reshape(2, rows, size, k)
    c0 = c1 = 1 if cofactors else 0
    while n1:
        e1 = max(n1, c1)
        act = M1[:, :e1] @ _monic_action(field, tuple(M1[0, n1 - 1].tolist()))
        # M1 is reduced, so act < k*p^2, and an entry of M0 takes at most
        # k*min(n0 - n1 + 1, e1) products c_m * act[m] before M0 is reduced
        # at the end of the step: it stays below p + k^2*p^3*min(...), which
        # int64 holds for p < 2^16 while k^2*min(...) < 2^15. Past that, act
        # is reduced first, and the bound is p + k*p^2*min(...).
        if k * k * p**3 * min(n0 - n1 + 1, e1) >= 1 << 63:
            act %= p
        for at in range(n0 - n1, -1, -1):
            for m, c in enumerate(M0[0, at + n1 - 1].tolist()):
                c %= p
                if c:
                    M0[:, at : at + e1] -= act[m] * c
        c0 = max(c0, n0 - n1 + c1)
        M0[:, : max(n0, c0)] %= p
        n0 = min(n0, n1 - 1)
        while n0 and not any(M0[0, n0 - 1].tolist()):
            n0 -= 1
        M0, M1, n0, n1, c0, c1 = M1, M0, n1, n0, c1, c0
    if n0:
        to_monic = _monic_action(field, tuple(M0[0, n0 - 1].tolist()))[0, 0]
        M0 = M0[:, : max(n0, c0)] @ to_monic % p
    g = tuple(M0[0, :n0].ravel().tolist())
    return (g,) + tuple(ptrim(field, M0[r, :c0].ravel().tolist()) for r in range(1, rows))


@lru_cache(maxsize=4096)
def _monic_action(field, lead: tuple) -> np.ndarray:
    """(k, 1, k, k) int array A for a nonzero F_q scalar ``lead``: for a slot
    s (a row vector), s @ A[m, 0] mod p is the slot s * y^m / lead."""
    k = field.k
    L = _block(field, _inverse(field, lead))
    return (_tables(field)[0].reshape(k, k, k) @ L % field.p).transpose(2, 0, 1)[:, None]


def pgcd(field, a, b):
    """Monic gcd of a and b (flat, trimmed); () when both are zero. One
    in-place Euclid loop (``_euclid``) on int64 slot arrays."""
    return _euclid(field, a, b, cofactors=False)[0]


def pegcd(field, a, b):
    """Extended gcd: returns (g, u, v) with u*a + v*b = g and g monic, by the
    same in-place loop as ``pgcd``, with u and v carried as two more rows."""
    return _euclid(field, a, b, cofactors=True)


def pfold(field, a, n: int) -> tuple:
    """a mod x^n - 1 with exactly n slots: slot j gathers the slots j + i*n."""
    width = n * field.k
    if len(a) <= width:
        return tuple(a) + (0,) * (width - len(a))
    out = [0] * width
    for i, v in enumerate(a):
        out[i % width] += v
    return tuple(v % field.p for v in out)


def _x_derivative(field, a) -> tuple:
    """x times the formal derivative of a: slot j times the integer j."""
    k, p = field.k, field.p
    return ptrim(field, [v * (i // k) % p for i, v in enumerate(a)])


def pcyclic_mul(field, a, b, n: int):
    """Product of two residues modulo x^n - 1: the packed convolution with its
    slots folded mod n; always n slots."""
    conv = _convolve(field, a, b)
    width = n * (2 * field.k - 1)
    folded = np.zeros(-(-len(conv) // width) * width, dtype=np.int64)
    folded[: len(conv)] = conv
    slots = folded.reshape(-1, n, 2 * field.k - 1).sum(axis=0)
    return _flat(slots @ _tables(field)[1] % field.p)


# --- products on packed int64 vectors ----------------------------------------
#
# A product over F_q runs on packed vectors: slot j's k coordinates sit at
# j*s, s = 2k - 1, with zeros after them. Convolving two packed vectors then
# multiplies the polynomials with no overlap between slots (y-degrees stay
# below s), and the k x s matrix of the powers y^t (t < s) maps each slot
# back to k coordinates. For a residue modulo a monic f of degree d, one
# matrix instead maps the convolution to the packed residue of the product.
# For k = 1 a packed vector is the plain coefficient vector. Callers hold
# polynomials and residues by their flat coordinates; the kernels pack and
# unpack them, so the stride 2k - 1 never leaves this module.


def _pack(k: int, flat) -> np.ndarray:
    """Packed int vector of a residue given by its flat coordinates."""
    out = np.zeros((len(flat) // k, 2 * k - 1), dtype=np.int64)
    out[:, :k] = np.array(flat, dtype=np.int64).reshape(-1, k)
    return out.ravel()


def _unpack(k: int, packed: np.ndarray) -> tuple:
    """Flat coordinates, as a tuple of ints, of a packed residue."""
    return tuple(packed.reshape(-1, 2 * k - 1)[:, :k].ravel().tolist())


def _convolve(field, a, b) -> np.ndarray:
    """Packed convolution of a and b (flat, nonempty), mod p: slot j of a*b sits
    at j*(2k - 1), its y-degrees not yet reduced (rows of ``_tables(field)[1]``)."""
    k = field.k
    return np.convolve(_pack(k, a), _pack(k, b)) % field.p


def _times_x_powers(field, f, first, count: int) -> np.ndarray:
    """(count, d, k) int array: row t holds first * x^t mod f, ``first`` a
    (d, k) residue and f monic of degree d (flat). Each step shifts the slots
    and folds the top one back in through x^d = -low(x)."""
    p, k = field.p, field.k
    T = _linalg.mul_tensor(p, field.base_modulus or (0, 1))
    d = len(f) // k - 1
    low = np.array(f[:-k], dtype=np.int64).reshape(d, k)
    r = np.zeros((count, d, k), dtype=np.int64)
    r[0] = first
    for t in range(1, count):
        r[t, 1:] = r[t - 1, :-1]
        r[t] = (r[t] - np.einsum("lab,a,jb->jl", T, r[t - 1, -1], low)) % p
    return r


@lru_cache(maxsize=16)  # keys are field moduli, and candidates of degree <= q
def _reduction_matrix(field, mod: tuple) -> np.ndarray:
    """Matrix taking np.convolve of two packed residues to the packed residue
    of their product, modulo the monic ``mod`` (flat, a tuple) over ``field``.

    Column e*s + t holds the packed residue of x^e y^t.
    """
    p, k = field.p, field.k
    T = _linalg.mul_tensor(p, field.base_modulus or (0, 1))
    s, d = 2 * k - 1, len(mod) // k - 1
    # r[e] = x^e mod f: the unit residues, then x^d = -low(x) times x^t
    r = np.zeros((2 * d, d, k), dtype=np.int64)
    r[np.arange(d), np.arange(d), 0] = 1
    r[d:] = _times_x_powers(field, mod, -np.array(mod[:-k]).reshape(d, k) % p, d)
    red = np.zeros((d, s, 2 * d, s), dtype=np.int64)
    red[:, :k] = np.einsum("lab,eja,tb->jlet", T, r, _tables(field)[1]) % p
    return red.reshape(d * s, 2 * d * s)


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
    """Flat coordinates of a*b mod f, a and b flat; ``red`` = _reduction_matrix(f)."""
    k = field.k
    return _unpack(k, mulmod(field.p, red, _pack(k, a), _pack(k, b)))


def mulmod_rows(field, red: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row r of the result is A[r]*B[r] mod f: (N, k*d) int arrays of flat
    coordinates in [0, p), as ``pmulmod`` row by row.

    The packed convolutions of all rows are built together by one shifted
    multiply-add for each coordinate that is nonzero in some row of B (put
    the sparser operand second), so nothing larger than (N, 2*d*(2k - 1)) is
    allocated; then one product by ``red`` reduces them. A convolution entry
    is a sum of at most k*d products of two reduced entries, below k*d*p^2,
    and after one reduction mod p the product by ``red`` sums 2*d*(2k - 1)
    products below p^2. With p < 2^16 int64 is safe for k*d < 2^29.
    """
    p, k = field.p, field.k
    s = 2 * k - 1
    rows, width = A.shape
    d = width // k
    Ap = np.zeros((rows, d, s), dtype=np.int64)
    Ap[:, :, :k] = A.reshape(rows, d, k)
    Ap = Ap.reshape(rows, d * s)
    conv = np.zeros((rows, red.shape[1]), dtype=np.int64)
    for c in B.any(axis=0).nonzero()[0].tolist():
        at = c // k * s + c % k
        conv[:, at : at + d * s] += B[:, c, None] * Ap
    out = (conv % p) @ red.T % p
    return out.reshape(rows, d, s)[:, :, :k].reshape(rows, width)


def ppowmod(field, red: np.ndarray, a, e: int) -> tuple:
    """Flat coordinates of a^e modulo f (e >= 0), as ``pmulmod``."""
    k = field.k
    return _unpack(k, _powmod(field.p, red, _pack(k, a), e))


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending.

    Trial division goes on up to sqrt(n) while what is left of n is below
    2^32 (so d < 2^16), which leaves 1 or a prime. A cofactor of 2^32 or more
    left after the divisors below 2^10 goes to ``sympy.factorint``, which is
    imported for that case alone.
    """
    out = []
    d = 2
    while d * d <= n and (d < 1 << 10 or n < 1 << 32):
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n >= 1 << 32:
        import sympy

        return out + sorted(sympy.factorint(n))
    if n > 1:
        out.append(n)
    return out


def _frobenius_q(field, f) -> np.ndarray:
    """F_p matrix (k*d square), on flat coordinates, of h -> h^q on F_q[x]/(f),
    f monic of degree d (flat).

    Its column j, in F_q terms, is x^(qj) mod f, which is x^q times column
    j - 1: slot i moves to slot i + q while i + q < d, and the other slots
    come back through the residues x^(max(q, d) + t) mod f, t < min(q, d).
    Those start at x^d = -low(f) for q < d and at x^q mod f, by
    square-and-multiply, for q >= d. So a column costs one product by a
    (k*d x k*min(q, d)) matrix.
    """
    p, k, q = field.p, field.k, field.q
    d = pdeg(field, f)
    wrap = min(q, d)  # the top slots, d - wrap and up, go through the table
    if q < d:
        first = -np.array(f[:-k]).reshape(d, k) % p
    else:
        red = _reduction_matrix(field, tuple(f))
        x_q = _powmod(p, red, red[:, 2 * k - 1], q)  # red[:, 2k - 1] is x
        first = x_q.reshape(d, 2 * k - 1)[:, :k]
    R = _times_x_powers(field, f, first, wrap)
    T = _linalg.mul_tensor(p, field.base_modulus or (0, 1))
    act = np.einsum("lab,tjb->jlta", T, R).reshape(d * k, wrap * k) % p
    cols = np.zeros((d, d * k), dtype=np.int64)
    cols[0, 0] = 1
    for j in range(1, d):
        cols[j, q * k :] = cols[j - 1, : (d - wrap) * k]
        cols[j] = (cols[j] + act @ cols[j - 1, (d - wrap) * k :]) % p
    return _linalg.lift(field, cols.reshape(d, d, k).transpose(1, 0, 2))


def pis_irreducible(field, f) -> bool:
    """Irreducibility test for a monic polynomial over F_q, q = p^k, given flat.

    A polynomial of degree d >= 2 with f(0) = 0 has the factor x. Otherwise:
    - stage 1, cheap rejects: for each i <= d/2 with m = q^i < d, the gcd of
      f with x^m - x, the product of the monic irreducibles of degree
      dividing i, is gcd(x^m - x, f mod (x^m - x)), and f mod (x^m - x) is a
      fold of f's slots (x^e -> x^(1 + (e - 1) mod (m - 1)) for e >= 1). A
      nontrivial gcd means an irreducible factor of degree at most
      i <= d/2 < d, so f is reducible. Most random candidates have one.
    - stage 2, Rabin's test on the survivors: f is irreducible iff
      x^(q^d) = x mod f and gcd(x^(q^(d/r)) - x, f) = 1 for each prime r | d.
      x^(q^d) - x is the product of the monic irreducibles of degree dividing
      d, so the first condition leaves a squarefree f whose factors have such
      degrees, and the gcds rule out every degree below d. The powers
      x^(q^j) are a chain of products by the F_p matrix of h -> h^q; the
      gcds run only if the chain ends at x, and not at a j that stage 1
      already checked.
    """
    p, k, q = field.p, field.k, field.q
    d = pdeg(field, f)
    if d < 1:
        return False
    if d == 1:
        return True
    if not any(f[:k]):
        return False
    i, m = 1, q
    while 2 * i <= d and m < d:
        folded = ptrim(field, tuple(f[:k]) + pfold(field, f[k:], m - 1))
        x_m_minus_x = psub(field, (0,) * (k * m) + pone(field), (0,) * k + pone(field))
        if pdeg(field, pgcd(field, x_m_minus_x, folded)) > 0:
            return False
        i, m = i + 1, m * q
    gcd_at = {d // r for r in _prime_factors(d)} - set(range(i))
    # float64 products by BLAS are exact: an entry of Q @ w sums k*d products
    # below p^2 < 2^32, so it stays below 2^53 for any k*d < 2^21
    Q = _frobenius_q(field, f).astype(np.float64)
    x = np.zeros(k * d)
    x[k] = 1
    w, kept = x, []
    for j in range(1, d + 1):
        w = np.fmod(Q @ w, p)
        if j in gcd_at:
            kept.append(w)
    if not np.array_equal(w, x):
        return False
    for v in kept:
        v_minus_x = ptrim(field, ((v - x) % p).astype(np.int64).tolist())
        if pdeg(field, pgcd(field, f, v_minus_x)) > 0:
            return False
    return True
