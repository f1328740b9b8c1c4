"""Dense polynomial arithmetic over F_q = F_p[y]/(m(y)), on ints mod p.

A polynomial c_0 + c_1 x + ... over F_q, q = p^k, is the flat tuple of its
coefficients' coordinates: slot j (the coefficient of x^j) holds its k
coordinates at j*k, the layout of ``ExtElement.coords`` and of ``_linalg``
(F_p itself is F_p[y]/(y), k = 1). A polynomial has no trailing zero slot, so
zero is the empty tuple; a residue mod x^n - 1 always has n slots. Every
kernel has one path for every F_q: an F_q scalar acts on a vector of slots
through its k x k block, as ``ExtElement.scale`` does, and every product is
one packed convolution (see the kernels section below); ``pmul`` is the
cyclic product on enough slots that nothing wraps.

Long division runs on Kronecker-packed Python ints: a row (a remainder or
a cofactor) is one int whose 64-bit lane i holds flat coordinate i, k lanes
to a slot. One step, ``_divide``, finds the quotient from the top slots of
the remainder alone, then adds the quotient times the divisor's row to each
row: for k = 1 one small-int product and one add per row, for k > 1 k of
them through the blocks of the quotient's coefficients (``_times``). Lanes
hold ints congruent to the coordinates, not reduced: ``_euclid`` tracks a
bound on them, v0 + s*k*(p - 1)*v1 after a step of s quotient slots, and
reduces every row mod p in one numpy round trip only when that bound would
reach 2^62. ``pdivmod`` is one step, and Euclid (``pgcd``, ``pegcd``) is a
loop of steps on the last two remainders, with their cofactors for
``pegcd``.

Every power (``_power``, ``ppowmod``, ``ExtElement.__pow__``, Frobenius gaps)
is the one left-to-right ``_square_and_multiply`` on the caller's product.
The F_p matrix products of the irreducibility test's chain and of
``mulmod_rows`` are ``_linalg.matmul_mod``, which owns their exactness.
"""

from __future__ import annotations

import struct
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
    T = _linalg.mul_tensor(field)
    k = field.k
    y_pows = [T[:, min(t, k - 1), t - min(t, k - 1)] for t in range(2 * k - 1)]
    return T.transpose(2, 0, 1).reshape(k, k * k), np.array(y_pows)


@lru_cache(maxsize=4096)
def _block(field, c: tuple) -> np.ndarray:
    """k x k F_p matrix of multiplication by the F_q scalar c (its coordinates)."""
    block = np.array(c, dtype=np.int64) @ _tables(field)[0] % field.p
    return block.reshape(field.k, field.k)


def _square_and_multiply(mul, x, e: int, times_x=None):
    """x^e for e >= 1, left to right: each bit of e after the top one squares
    the power by ``mul(a, b)``, and a set bit then multiplies it by x, by
    ``times_x(a)`` when given and ``mul(a, x)`` otherwise. The oracle's
    ``linearized._power_table`` keeps a loop of its own."""
    acc = x
    for bit in bin(e)[3:]:
        acc = mul(acc, acc)
        if bit == "1":
            acc = mul(acc, x) if times_x is None else times_x(acc)
    return acc


def _power(field, c: tuple, e: int) -> tuple:
    """Coordinates of c^e for an F_q scalar c and e >= 0 (0^0 = 1): the first
    column of c's block raised to e."""
    if e == 0:
        return pone(field)
    p = field.p
    block = _square_and_multiply(lambda a, b: a @ b % p, _block(field, c), e)
    return tuple(block[:, 0].tolist())


@lru_cache(maxsize=4096)
def _inverse(field, c: tuple) -> tuple:
    """Coordinates of 1/c for a nonzero F_q scalar c: c^(q - 2)."""
    return _power(field, c, field.q - 2)


def pmul(field, a, b):
    """Product of a and b: their cyclic product on deg a + deg b + 1 slots,
    where nothing wraps."""
    if not a or not b:
        return ()
    return ptrim(field, pcyclic_mul(field, a, b, (len(a) + len(b)) // field.k - 1))


# --- long division and Euclid on packed ints (see the module docstring) ------

_LANE = 64
_MASK = (1 << _LANE) - 1
_LIMIT = 1 << 62  # the bound kept on every lane, so that none carries


def _to_int(flat) -> int:
    """The packed int of flat coordinates in [0, p)."""
    return int.from_bytes(struct.pack(f"<{len(flat)}Q", *flat), "little")


def _reduced(field, rows) -> np.ndarray:
    """(len(rows), w) uint64 array of the lanes of the packed ints ``rows``
    reduced mod p, w a whole number of slots: one numpy round trip."""
    k = field.k
    w = -(-max(map(int.bit_length, rows)) // (_LANE * k)) * k
    flat = np.frombuffer(b"".join([r.to_bytes(8 * w, "little") for r in rows]), dtype="<u8")
    return (flat.reshape(len(rows), w) % np.uint64(field.p)).astype("<u8", copy=False)


def _slot(field, v: int, at: int) -> tuple:
    """Slot ``at`` of the packed int v, reduced mod p."""
    k, p = field.k, field.p
    if k == 1:
        return ((v >> _LANE * at & _MASK) % p,)
    lanes = (v >> _LANE * k * at & (1 << _LANE * k) - 1).to_bytes(8 * k, "little")
    return tuple(map(p.__rmod__, _lane_struct(k).unpack(lanes)))


@lru_cache(maxsize=None)
def _lane_struct(k: int) -> struct.Struct:
    return struct.Struct(f"<{k}Q")


@lru_cache(maxsize=256)
def _starts(k: int, slots: int) -> int:
    """The packed int with lane 0 of each of ``slots`` slots all ones."""
    return int.from_bytes((b"\xff" * 8 + bytes(8 * (k - 1))) * slots, "little")


def _times(cols, y: int, starts) -> int:
    """c*y, for c over F_q given by the packed c*y^i (i < k), reduced:
    sum_i cols[i] * (lane i of each slot of y), ``starts`` covering y; for
    k = 1 (``starts`` None) cols[0] * y. A lane of c*y sums at most
    k*min(slots of c, slots of y) products of a coordinate and a lane of y."""
    if starts is None:
        return cols[0] * y
    out = 0
    for i, c in enumerate(cols):
        out += c * (y >> _LANE * i & starts)
    return out


@lru_cache(maxsize=4096)
def _quotient_columns(field, lead: tuple, top: tuple) -> tuple:
    """The packed c*y^i (i < k), reduced, for the F_q scalar c = -top/lead."""
    c = -(_block(field, _inverse(field, lead)) @ np.array(top, dtype=np.int64)) % field.p
    cols = np.ascontiguousarray(_block(field, tuple(c.tolist())).T, dtype="<u8")
    return tuple(int.from_bytes(col.tobytes(), "little") for col in cols)


def _divide(field, rows0: list, rows1: list, n0: int, n1: int, lead: tuple, starts) -> tuple:
    """One long division of the remainder rows0[0] (n0 slots) by rows1[0]
    (n1 <= n0 slots, top slot ``lead`` nonzero mod p), neither with lanes
    above its slots: (rows, n, top, cols), with N minus the quotient,
    reduced, ``cols`` its packed N*y^i (i < k) and each row of ``rows``
    that of rows0 plus N times that of rows1. rows[0] is cut to the n slots
    of the new remainder, with top slot ``top`` (for n > 0).

    N depends only on the top s = n0 - n1 + 1 slots, A, of rows0[0]: from
    the top slot down, each coefficient is -(that slot of A)/lead, and A
    takes it times the divisor there. The products by N then leave the top
    s slots of the remainder 0 mod p but not 0, and they are cut.
    """
    p, k = field.p, field.k
    s, width = n0 - n1 + 1, _LANE * k
    A, r1 = rows0[0] >> width * (n1 - 1), rows1[0]
    if s > 1:  # the divisor's top s slots, its top slot at A's
        R = r1 >> width * (n1 - s) if s <= n1 else r1 << width * (s - n1)
    if k == 1:
        neg_inv = -pow(lead[0], -1, p)
        N = 0
        for j in range(s - 1, -1, -1):
            c = (A >> _LANE * j & _MASK) * neg_inv % p
            if c:
                N |= c << _LANE * j
                if j:
                    A += c * (R >> _LANE * (s - 1 - j))
        cols = (N,)
        rows = [x + N * y for x, y in zip(rows0, rows1)]
    else:
        cols = [0] * k
        for j in range(s - 1, -1, -1):
            t = _slot(field, A, j)
            if any(t):
                step = _quotient_columns(field, lead, t)
                for i, c in enumerate(step):
                    cols[i] |= c << width * j
                if j:
                    A += _times(step, R >> width * (s - 1 - j), starts)
        rows = [x + _times(cols, y, starts) for x, y in zip(rows0, rows1)]
    n, top = n1 - 1, None
    while n and not any(top := _slot(field, rows[0], n - 1)):
        n -= 1
    rows[0] &= (1 << width * n) - 1
    return rows, n, top, cols


def pdivmod(field, a, b):
    """Quotient and remainder of a by b (b nonzero): one ``_divide``."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return (), tuple(a)
    k = field.k
    n0, n1 = len(a) // k, len(b) // k
    starts = _starts(k, n0) if k > 1 else None
    (r,), _, _, cols = _divide(field, [_to_int(a)], [_to_int(b)], n0, n1, tuple(b[-k:]), starts)
    quo, rem = (ptrim(field, row) for row in _reduced(field, (cols[0], r)).tolist())
    return pneg(field, quo), rem


def pmod(field, a, b):
    return pdivmod(field, a, b)[1]


def _euclid(field, a, b, cofactors: bool) -> tuple:
    """Euclid's algorithm on a and b (flat, trimmed): (g,) with g the monic
    gcd, or with ``cofactors`` (g, u, v) with u*a + v*b = g; for a = b = 0,
    g = 0, u = 1 and v = 0. rows0 and rows1 are the last two (remainder, u,
    v) of the remainder sequence, packed; n0, n1 and lead0, lead1 are the
    slots and top slots of their remainders.

    v0 and v1 bound the lanes of rows0 and rows1. A step of s quotient
    slots adds at most s*k*(p - 1)*v1 to a lane of rows0 (``_times``; the
    lanes of A in ``_divide`` get no more). When v0 plus that would reach
    2^62 every row is reduced mod p first, which leaves
    p - 1 + s*k*(p - 1)^2 < 2^62 for p < 2^16 and s*k < 2^30.
    """
    p, k = field.p, field.k
    n0, n1 = len(a) // k, len(b) // k
    rows0, rows1 = [_to_int(a)], [_to_int(b)]
    if cofactors:
        rows0 += [1, 0]
        rows1 += [0, 1]
    lead0, lead1 = tuple(a[-k:]), tuple(b[-k:])
    # the cofactors never pass n0 + n1 + 1 slots
    starts = _starts(k, n0 + n1 + 1) if k > 1 else None
    v0 = v1 = p - 1
    while n1:
        if n0 >= n1:
            grow = (n0 - n1 + 1) * k * (p - 1)
            if v0 + grow * v1 >= _LIMIT:
                rows = [int.from_bytes(r.tobytes(), "little") for r in _reduced(field, rows0 + rows1)]
                rows0, rows1, v0, v1 = rows[: len(rows0)], rows[len(rows0) :], p - 1, p - 1
            v0 += grow * v1
            rows0, n0, lead0, _ = _divide(field, rows0, rows1, n0, n1, lead1, starts)
        rows0, rows1, n0, n1, lead0, lead1, v0, v1 = rows1, rows0, n1, n0, lead1, lead0, v1, v0
    if n0:  # times 1/lead0 = -(-1)/lead0, which leaves lanes below k*(p - 1)*v0
        if k * (p - 1) * v0 >= _LIMIT:
            rows0 = [int.from_bytes(r.tobytes(), "little") for r in _reduced(field, rows0)]
        inverse = _quotient_columns(field, lead0, (p - 1,) + (0,) * (k - 1))
        rows0 = [_times(inverse, r, starts) for r in rows0]
    return tuple(ptrim(field, row) for row in _reduced(field, rows0).tolist())


def pgcd(field, a, b):
    """Monic gcd of a and b (flat, trimmed); () when both are zero."""
    return _euclid(field, a, b, cofactors=False)[0]


def pegcd(field, a, b):
    """Extended gcd: (g, u, v) with u*a + v*b = g and g monic, by the loop
    of ``pgcd`` with u and v as two more rows."""
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
    """Product of a and b (flat, nonempty) modulo x^n - 1: their packed
    convolution with its slots folded mod n, then each slot's y-degrees
    reduced through the rows y^t of ``_tables(field)[1]``; always n slots."""
    k, s = field.k, 2 * field.k - 1
    conv = np.convolve(_pack(k, a), _pack(k, b)) % field.p
    folded = np.zeros(-(-len(conv) // (n * s)) * n * s, dtype=np.int64)
    folded[: len(conv)] = conv
    slots = folded.reshape(-1, n, s).sum(axis=0)
    return tuple((slots @ _tables(field)[1] % field.p).ravel().tolist())


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


def _times_x_powers(field, low, first, count: int) -> np.ndarray:
    """(count, ..., d, k) int array: entry t holds first * x^t mod f, for f
    monic of degree d with the coefficients ``low`` below x^d and ``first``
    a residue, both (..., d, k) int arrays. Each step shifts the slots and
    folds the top one back in through x^d = -low(x). The leading axes run
    several f at once; a factor of lower degree e can share them with its
    slots and its low(f) in the top e of the d slots and zeros below.
    """
    p = field.p
    T = _linalg.mul_tensor(field)
    r = np.zeros((count,) + np.shape(first), dtype=np.int64)
    r[0] = first
    for t in range(1, count):
        r[t, ..., 1:, :] = r[t - 1, ..., :-1, :]
        r[t] = (r[t] - np.einsum("lab,...a,...jb->...jl", T, r[t - 1, ..., -1, :], low)) % p
    return r


@lru_cache(maxsize=16)  # keys are field moduli, and candidates of degree <= q
def _reduction_matrix(field, mod: tuple) -> np.ndarray:
    """Matrix taking np.convolve of two packed residues to the packed residue
    of their product, modulo the monic ``mod`` (flat, a tuple) over ``field``.

    Column e*s + t holds the packed residue of x^e y^t.
    """
    p, k = field.p, field.k
    T = _linalg.mul_tensor(field)
    s, d = 2 * k - 1, len(mod) // k - 1
    # r[e] = x^e mod f: the unit residues, then x^d = -low(x) times x^t
    r = np.zeros((2 * d, d, k), dtype=np.int64)
    r[np.arange(d), np.arange(d), 0] = 1
    low = np.array(mod[:-k]).reshape(d, k)
    r[d:] = _times_x_powers(field, low, -low % p, d)
    red = np.zeros((d, s, 2 * d, s), dtype=np.int64)
    red[:, :k] = np.einsum("lab,eja,tb->jlet", T, r, _tables(field)[1]) % p
    return red.reshape(d * s, 2 * d * s)


def mulmod(p: int, red: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Packed product a*b reduced by ``red``: the one convolve-and-reduce kernel."""
    conv = np.convolve(a, b) % p
    padded = np.zeros(red.shape[1], dtype=np.int64)
    padded[: len(conv)] = conv
    return (red @ padded) % p


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
    allocated; then one ``_linalg.matmul_mod`` by ``red`` reduces them. A
    convolution entry is a sum of at most k*d products of two reduced
    entries, below k*d*p^2, inside int64 for p < 2^16 and k*d < 2^29.
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
    out = _linalg.matmul_mod(conv % p, red.T, p)
    return out.reshape(rows, d, s)[:, :, :k].reshape(rows, width)


def unit_products(field, red: np.ndarray) -> np.ndarray:
    """(w, w, w) array, w = k*d: entry [a, b] holds the flat coordinates of
    u_a * u_b mod f, u the unit vectors, as ``mulmod_rows`` gives them. The
    product of y^l z^j and y^m z^i is y^(l+m) z^(j+i), whose packed residue
    is column (j+i)*s + l+m of ``red``."""
    k, s = field.k, 2 * field.k - 1
    d = red.shape[0] // s
    at = np.arange(k * d) // k * s + np.arange(k * d) % k
    cols = red[:, at[:, None] + at[None, :]].reshape(d, s, k * d, k * d)
    return cols[:, :k].reshape(k * d, k * d, k * d).transpose(1, 2, 0)


def ppowmod(field, red: np.ndarray, a, e: int) -> tuple:
    """Flat coordinates of a^e modulo f (e >= 0, 0^0 = 1), as ``pmulmod``."""
    k, p = field.k, field.p
    if e == 0:
        return _unpack(k, red[:, 0])  # the packed residue 1
    return _unpack(k, _square_and_multiply(lambda a, b: mulmod(p, red, a, b), _pack(k, a), e))


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
    ``ppowmod``, for q >= d. So a column costs one product by a
    (k*d x k*min(q, d)) matrix.
    """
    p, k, q = field.p, field.k, field.q
    d = pdeg(field, f)
    wrap = min(q, d)  # the top slots, d - wrap and up, go through the table
    low = np.array(f[:-k]).reshape(d, k)
    if q < d:
        first = -low % p
    else:
        red = _reduction_matrix(field, tuple(f))
        x = _unpack(k, red[:, 2 * k - 1])  # column 2k - 1 of red is x mod f
        first = np.reshape(ppowmod(field, red, x, q), (d, k))
    R = _times_x_powers(field, low, first, wrap)
    T = _linalg.mul_tensor(field)
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
    Q = _linalg.cast_exact(_frobenius_q(field, f), p)
    x = np.zeros(k * d, dtype=np.int64)
    x[k] = 1
    w, kept = x, []
    for j in range(1, d + 1):
        w = _linalg.matmul_mod(Q, w, p)
        if j in gcd_at:
            kept.append(w)
    if not np.array_equal(w, x):
        return False
    for v in kept:
        v_minus_x = ptrim(field, ((v - x) % p).tolist())
        if pdeg(field, pgcd(field, f, v_minus_x)) > 0:
            return False
    return True
