"""Dense polynomial arithmetic over F_q = F_p[y]/(m(y)), on ints mod p.

A polynomial c_0 + c_1 x + ... over F_q, q = p^k, is the flat tuple of its
coefficients' coordinates: slot j (the coefficient of x^j) holds its k
coordinates at j*k, the layout of ``ExtElement.coords`` and of ``_linalg``
(F_p itself is F_p[y]/(y), k = 1). A polynomial has no trailing zero slot, so
zero is the empty tuple; a residue mod x^n - 1 always has n slots. Every
kernel has one path for every F_q (long division one per row layout, below):
an F_q scalar acts on a vector of slots through its k x k block, as
``ExtElement.scale`` does, and every product is one packed convolution (see
the kernels section below); ``pmul`` is the cyclic product on enough slots
that nothing wraps.

Long division runs on Kronecker-packed Python ints: a row (a remainder or
a cofactor) is one int whose lane i holds flat coordinate i, k lanes to a
slot, and the lane width is sized to p; p alone picks the layout, as it
does for bit-rows or lanes in ``_linalg.rank_mod``.

- p = 2: a bit-row, one bit per coordinate (the M4RI layout of
  ``_linalg.rank_mod``). Adding rows is XOR, so nothing is ever reduced,
  and a remainder's degree is its bit length. An F_{2^k} scalar acts on a
  row through k masked products (``_bit_times``). Each divisor is made
  monic first, so a quotient coefficient is the top slot of the remainder.
- Odd p: lanes of L bits (``_lane_width``, from p, k, the longest step and
  the row length) that hold ints congruent to the coordinates, not reduced.
  A step finds the quotient from the top slots of the remainder alone
  (``_lane_quotient``), then adds it times the divisor's row to each row.
  ``_euclid`` tracks a bound on the lanes, e0 + s*k*(p - 1)*e1 after a step
  of s quotient slots, and when it would reach 2^B, B =
  ``_linalg._lane_bound(L)``, reduces every row in its lanes by the Barrett
  step of ``_linalg._barrett`` (``_reduced``).

``pdivmod`` is one step, with the quotient as one more row, and Euclid
(``pgcd``, ``pegcd``) is a loop of steps on the last two remainders, with
their cofactors for ``pegcd``. ``_frobenius_q`` builds the matrix of
h -> h^q on the same rows, one column from the one before: x^q times it,
its top slots folded back through a table of residues mod f.

Every power (``_power``, ``ppowmod``, ``ExtElement.__pow__``, Frobenius gaps)
is the one left-to-right ``_square_and_multiply`` on the caller's product.
The F_p matrix products of the irreducibility test's chain, of ``ppowmod``
and of ``mulmod_rows`` are ``_linalg.matmul_mod``, which owns their
exactness; ``pmulmod``, one product, stays on int64.
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


@lru_cache(maxsize=4096)
def _block(field, c: tuple) -> np.ndarray:
    """k x k F_p matrix of multiplication by the F_q scalar c (its
    coordinates): entry (l, b) is sum_a c_a T[l, a, b], T = ``mul_tensor``."""
    return np.array(c, dtype=np.int64) @ _linalg.mul_tensor(field) % field.p


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


# --- long division and Euclid on packed rows (see the module docstring) ------
#
# Both row layouts take an F_q scalar through the rows c*y^i of its block
# (``_columns``); a bit-row is the layout with L = 1 and XOR for addition.

_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")
_TO_BITS = bytes.maketrans(b"01", b"\0\1")


@lru_cache(maxsize=256)
def _starts(k: int, slots: int, L: int) -> int:
    """The row of ``slots`` slots of k lanes of L bits with lane 0 of each
    slot all ones."""
    return ((1 << L) - 1) * (((1 << L * k * slots) - 1) // ((1 << L * k) - 1))


@lru_cache(maxsize=4096)
def _columns(field, c: int, L: int, invert: bool = False) -> tuple:
    """The rows c*y^i (i < k) of the F_q scalar c, or of 1/c with ``invert``,
    read off its block: coordinate l in lane l of L bits, as c is given."""
    coords = tuple(c >> L * l & (1 << L) - 1 for l in range(field.k))
    if invert:
        coords = _inverse(field, coords)
    return tuple(sum(v << L * l for l, v in enumerate(col)) for col in _block(field, coords).T.tolist())


# p = 2: bit-rows


def _bit_row(flat) -> int:
    """The bit-row of flat coordinates in {0, 1}."""
    return int(bytes(flat[::-1]).translate(_TO_DIGITS) or b"0", 2)


def _bit_flat(k: int, v: int) -> tuple:
    """Flat coordinates of the bit-row v, to its top slot."""
    if not v:
        return ()
    bits = bin(v)[:1:-1]
    return tuple((bits + "0" * (-len(bits) % k)).encode().translate(_TO_BITS))


def _bit_times(cols, y: int, starts: int) -> int:
    """c*y for c given by ``_columns(field, c, 1)``: the k products
    cols[i] * (bit i of each slot of y), XORed. In one product each term is
    a column of k bits at a multiple of k, so no two overlap, and the
    integer product is the carry-less one."""
    out = 0
    for i, c in enumerate(cols):
        out ^= c * (y >> i & starts)
    return out


def _bit_monic(field, r: int, u: int, v: int, starts) -> tuple:
    """(r, u, v) times 1/(the top slot of r); as they are when that is 0 or 1."""
    k = field.k
    if k == 1 or not r or (lead := r >> (r.bit_length() - 1) // k * k) == 1:
        return r, u, v
    inverse = _columns(field, lead, 1, invert=True)
    return tuple(y and _bit_times(inverse, y, starts) for y in (r, u, v))


def _bit_divide(field, r0: int, u0: int, v0: int, r1: int, u1: int, v1: int, starts) -> tuple:
    """(r0, u0, v0) after the long division of r0 by the monic r1: for each
    quotient term c*x^j, from the top, each of r0, u0 and v0 takes c*x^j
    times r1, u1 and v1 (c is the top slot of r0, and -c = c)."""
    k = field.k
    top = r1.bit_length()  # the top slot of r1 is 1, at bit top - 1
    while (bits := r0.bit_length()) >= top:
        at = (bits - 1) // k * k
        shift = at - top + 1
        if k == 1:
            r0 ^= r1 << shift
            u0 ^= u1 << shift
            v0 ^= v1 << shift
        else:
            cols = _columns(field, r0 >> at, 1)
            r0 ^= _bit_times(cols, r1, starts) << shift
            if u1:
                u0 ^= _bit_times(cols, u1, starts) << shift
            if v1:
                v0 ^= _bit_times(cols, v1, starts) << shift
    return r0, u0, v0


# odd p: L-bit lanes, reduced by a lane-wise Barrett step


# Rows of fewer lanes than this keep lanes of at least 64 bits. A narrower
# lane makes each int operation on a long row cheaper, but it is reduced
# more often, and on a short row that costs more than it saves. Measured per
# pegcd with x^n - 1 (BENCH_32.json), 32-bit lanes against 64-bit ones ran
# 1.23x faster at (3,125) and 1.02x at (11,125) (252 lanes), 1.21x at (7,49)
# (100 lanes), about even at (3,25) (52 lanes) and 1.11x and 1.26x slower at
# (11,9) and (11,25) (20 and 52 lanes), so the threshold lies between 53 and
# 100. The benchmark's workloads pick the same widths for any value from 57
# to 161, so they do not check it.
_NARROW_LANES = 64


def _lane_width(p: int, k: int, s: int, lanes: int) -> int:
    """L for rows of ``lanes`` lanes and steps of at most s quotient slots:
    the least multiple of 16 bits, and at least 32, or 64 below
    ``_NARROW_LANES`` lanes, whose ``_linalg._lane_bound`` holds B, the bit
    length of p - 1 + s*k*(p - 1)^2, the lane bound of one step from reduced
    rows (as in ``_linalg._lanes``). A product by a scalar of k lanes costs
    in proportion to L^2, so L takes no more than it needs."""
    B = (p - 1 + s * k * (p - 1) ** 2).bit_length()
    L = 32 if lanes >= _NARROW_LANES else 64
    while B > _linalg._lane_bound(L):
        L += 16
    return L


def _reduced(p: int, L: int, lanes: int, rows: list) -> list:
    """The rows, of at most ``lanes`` lanes below 2^``_linalg._lane_bound(L)``,
    with every lane reduced mod p by the Barrett step of ``_linalg._barrett``."""
    m, s, low = _linalg._barrett(p, L, _linalg._lane_bound(L), lanes)
    return [v - p * (v * m >> s & low) for v in rows]


@lru_cache(maxsize=256)
def _lane_struct(L: int, count: int) -> struct.Struct:
    """``count`` lanes of L bits, each holding a value below 2^16."""
    code = {32: "I", 64: "Q"}.get(L)
    return struct.Struct(f"<{count}{code}" if code else "<" + f"H{L // 8 - 2}x" * count)


def _lane_row(flat, L: int) -> int:
    """The row of flat coordinates in [0, p), one to a lane of L bits."""
    return int.from_bytes(_lane_struct(L, len(flat)).pack(*flat), "little")


def _lane_flat(k: int, L: int, v: int) -> tuple:
    """Flat coordinates of the reduced row v, to its top slot."""
    count = -(-v.bit_length() // (L * k)) * k
    return _lane_struct(L, count).unpack(v.to_bytes(count * L // 8, "little"))


def _slot(field, v: int, at: int, L: int) -> int:
    """Slot ``at`` of the row v with its lanes reduced mod p, as a scalar."""
    p, k, mask = field.p, field.k, (1 << L) - 1
    v >>= L * k * at
    return sum((v >> L * l & mask) % p << L * l for l in range(k))


def _times(cols, y: int, starts, L: int) -> int:
    """c*y, for c over F_q given by its rows c*y^i (i < k): sum_i cols[i] *
    (lane i of each slot of y), ``starts`` covering y; for k = 1 (``starts``
    None) cols[0] * y. A lane of c*y sums at most k*min(slots of c, slots of
    y) products of a coordinate and a lane of y."""
    if starts is None:
        return cols[0] * y
    out = 0
    for i, c in enumerate(cols):
        out += c * (y >> L * i & starts)
    return out


def _lane_quotient(field, r0: int, r1: int, n0: int, n1: int, lead: int, L: int, starts) -> tuple:
    """The rows N*y^i (i < k) of N, minus the quotient of r0 (n0 slots) by
    r1 (n1 <= n0 slots, reduced top slot ``lead`` != 0), neither with lanes
    above its slots; N is reduced.

    N depends only on the top s = n0 - n1 + 1 slots, A, of r0: from the top
    slot down, each coefficient is -(that slot of A)/lead, and A takes it
    times the divisor there. r0 + N*r1 then has its top s slots 0 mod p,
    but not 0.
    """
    p, k = field.p, field.k
    s, width, mask = n0 - n1 + 1, L * k, (1 << L) - 1
    A = r0 >> width * (n1 - 1)
    if s > 1:  # the divisor's top s slots, its top slot at A's
        R = r1 >> width * (n1 - s) if s <= n1 else r1 << width * (s - n1)
    if k == 1:
        neg_inv = -pow(lead, -1, p)
        N = 0
        for j in range(s - 1, -1, -1):
            c = (A >> L * j & mask) * neg_inv % p
            if c:
                N |= c << L * j
                if j:
                    A += c * (R >> L * (s - 1 - j))
        return (N,)
    # -t/lead = (1/lead)*(p - t), and p - t lies in [1, p] in every lane
    inverse, ps = _columns(field, lead, L, invert=True), p * ((1 << width) - 1) // mask
    cols = [0] * k
    for j in range(s - 1, -1, -1):
        if t := _slot(field, A, j, L):
            step = _columns(field, _slot(field, _times(inverse, ps - t, mask, L), 0, L), L)
            for i, c in enumerate(step):
                cols[i] |= c << width * j
            if j:
                A += _times(step, R >> width * (s - 1 - j), starts, L)
    return tuple(cols)


def pdivmod(field, a, b):
    """Quotient and remainder of a by b (b nonzero): one division step."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return (), tuple(a)
    p, k = field.p, field.k
    n0, n1 = len(a) // k, len(b) // k
    if p == 2:  # the quotient is what 0 becomes beside the row 1/lead
        starts = _starts(k, n1, 1)
        r1, inverse, _ = _bit_monic(field, _bit_row(b), 1, 0, starts)
        r, quo, _ = _bit_divide(field, _bit_row(a), 0, 0, r1, inverse, 0, starts)
        return _bit_flat(k, quo), _bit_flat(k, r)
    L = _lane_width(p, k, n0 - n1 + 1, k * n0)
    starts = _starts(k, n0, L) if k > 1 else None
    r0, r1 = _lane_row(a, L), _lane_row(b, L)
    cols = _lane_quotient(field, r0, r1, n0, n1, _lane_row(b[-k:], L), L, starts)
    r, N = _reduced(p, L, k * n0, [r0 + _times(cols, r1, starts, L), cols[0]])
    return pneg(field, _lane_flat(k, L, N)), _lane_flat(k, L, r)


def _euclid(field, a, b, cofactors: bool) -> tuple:
    """Euclid's algorithm on a and b (flat, trimmed): (g,) with g the monic
    gcd, or with ``cofactors`` (g, u, v) with u*a + v*b = g; for a = b = 0,
    g = 0, u = 1 and v = 0. (r0, u0, v0) and (r1, u1, v1) are the last two
    rows of the remainder sequence, packed, with r = u*a + v*b.

    For p = 2 each divisor is made monic before it divides, which scales
    the rows after it but not the monic gcd at the end, nor its u and v.

    For odd p, n0, n1 and lead0, lead1 are the slots and top slots of r0
    and r1, and e0 and e1 bound the lanes of the rows. A step of s quotient
    slots adds at most s*k*(p - 1)*e1 to a lane (``_times``; the lanes of A
    in ``_lane_quotient`` get no more). When e0 plus that would reach 2^B,
    B = ``_linalg._lane_bound(L)``, every row is reduced first. No step has
    more than max(n0, n1) quotient slots, so ``_lane_width`` picks L to keep
    a step from reduced rows below 2^B.
    """
    p, k = field.p, field.k
    n0, n1 = len(a) // k, len(b) // k
    u0, v0, u1, v1 = (1, 0, 0, 1) if cofactors else (0, 0, 0, 0)
    if p == 2:
        starts = _starts(k, n0 + n1 + 1, 1)
        r0, r1 = _bit_row(a), _bit_row(b)
        while r1:
            r1, u1, v1 = _bit_monic(field, r1, u1, v1, starts)
            (r0, u0, v0), (r1, u1, v1) = (r1, u1, v1), _bit_divide(field, r0, u0, v0, r1, u1, v1, starts)
        rows = _bit_monic(field, r0, u0, v0, starts)
        return tuple(_bit_flat(k, r) for r in rows[: 3 if cofactors else 1])
    L = _lane_width(p, k, max(n0, n1), k * (n0 + n1 + 1))
    mask, width = (1 << L) - 1, L * k
    r0, r1 = _lane_row(a, L), _lane_row(b, L)
    lead0, lead1 = _lane_row(a[-k:], L), _lane_row(b[-k:], L)
    # the cofactors never pass n0 + n1 + 1 slots
    lanes = k * (n0 + n1 + 1)
    starts = _starts(k, n0 + n1 + 1, L) if k > 1 else None
    limit = 1 << _linalg._lane_bound(L)
    e0 = e1 = p - 1
    while n1:
        if n0 >= n1:
            grow = (n0 - n1 + 1) * k * (p - 1)
            if e0 + grow * e1 >= limit:
                if cofactors:
                    r0, r1, u0, u1, v0, v1 = _reduced(p, L, lanes, [r0, r1, u0, u1, v0, v1])
                else:
                    r0, r1 = _reduced(p, L, lanes, [r0, r1])
                e0 = e1 = p - 1
            e0 += grow * e1
            cols = _lane_quotient(field, r0, r1, n0, n1, lead1, L, starts)
            n0, lead0 = n1 - 1, 0
            if k == 1:  # inline: a call per row costs a fifth of a step here
                N = cols[0]
                r0 += N * r1
                if cofactors:
                    u0 += N * u1
                    v0 += N * v1
                while n0 and not (lead0 := (r0 >> L * (n0 - 1) & mask) % p):
                    n0 -= 1
            else:
                r0 += _times(cols, r1, starts, L)
                if cofactors:
                    u0 += _times(cols, u1, starts, L)
                    v0 += _times(cols, v1, starts, L)
                while n0 and not (lead0 := _slot(field, r0, n0 - 1, L)):
                    n0 -= 1
            r0 &= (1 << width * n0) - 1
        r0, r1, u0, u1, v0, v1 = r1, r0, u1, u0, v1, v0
        n0, n1, lead0, lead1, e0, e1 = n1, n0, lead1, lead0, e1, e0
    rows = [r0, u0, v0] if cofactors else [r0]
    # times 1/lead0 leaves lanes below k*(p - 1)*e0 < 2^B, e0 the bound of
    # the last divisor: either p - 1, when no step ran or the last one reduced
    # its rows, and ``_lane_width`` holds a one-slot step from reduced rows;
    # or the last step kept grow*e0 below 2^B, with grow >= k*(p - 1)
    if n0:
        inverse = _columns(field, lead0, L, invert=True)
        rows = [_times(inverse, r, starts, L) for r in rows]
    return tuple(_lane_flat(k, L, r) for r in _reduced(p, L, lanes, rows))


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


def pcyclic_mul(field, a, b, n: int):
    """Product of a and b (flat, nonempty) modulo x^n - 1: their packed
    convolution with its slots folded mod n, then each slot's y-degrees
    reduced through the rows y^t of ``_linalg.y_powers``; always n slots."""
    k, s = field.k, 2 * field.k - 1
    conv = np.convolve(_pack(k, a), _pack(k, b)) % field.p
    folded = np.zeros(-(-len(conv) // (n * s)) * n * s, dtype=np.int64)
    folded[: len(conv)] = conv
    slots = folded.reshape(-1, n, s).sum(axis=0)
    return tuple((slots @ _linalg.y_powers(field) % field.p).ravel().tolist())


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
    red[:, :k] = np.einsum("lab,eja,tb->jlet", T, r, _linalg.y_powers(field)) % p
    return red.reshape(d * s, 2 * d * s)


def _convolved(p: int, width: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.convolve of the packed a and b mod p, padded with zeros to the
    ``width`` columns of a reduction matrix."""
    conv = np.convolve(a, b) % p
    padded = np.zeros(width, dtype=np.int64)
    padded[: len(conv)] = conv
    return padded


def pmulmod(field, red: np.ndarray, a, b) -> tuple:
    """Flat coordinates of a*b mod f, a and b flat; ``red`` = _reduction_matrix(f)."""
    k, p = field.k, field.p
    return _unpack(k, red @ _convolved(p, red.shape[1], _pack(k, a), _pack(k, b)) % p)


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
    """Flat coordinates of a^e modulo f (e >= 0, 0^0 = 1), as ``pmulmod``;
    ``red`` is fixed through the loop, so it is cast once and every product
    reduces through ``_linalg.matmul_mod``."""
    k, p = field.k, field.p
    if e == 0:
        return _unpack(k, red[:, 0])  # the packed residue 1
    R, width = _linalg.cast_exact(red, p), red.shape[1]
    power = _square_and_multiply(
        lambda a, b: _linalg.matmul_mod(R, _convolved(p, width, a, b), p), _pack(k, a), e
    )
    return _unpack(k, power)


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
    """F_p matrix (k*d square, int64), on flat coordinates, of h -> h^q on
    F_q[x]/(f), f monic of degree d (flat).

    Its column j*k + l is y^l x^(qj) mod f, which is x^q times column
    (j - 1)*k + l: slot i moves to slot i + q while i + q < d, and the top
    w = min(q, d) slots come back through the residues x^(max(q, d) + t)
    mod f, t < w. Those start at x^d = -low(f) for q < d and at x^q mod f,
    by ``ppowmod``, for q >= d (``_times_x_powers``); the table holds y^l
    times each, one row per coordinate of the top slots.

    Each column is a packed row in the layouts of long division (see the
    module docstring), built from the one before by one shift of its low
    slots and one multiply-add per nonzero coordinate of its top slots, by
    that coordinate's table row. On bit-rows (p = 2) that is XOR. On lanes
    (odd p) the table and the column are reduced, so a lane then holds below
    p - 1 + k*w*(p - 1)^2; L is the fewest bits whose ``_linalg._lane_bound``
    holds that, and one Barrett step (``_linalg._barrett``) reduces the new
    column. The columns are unpacked once, at the end.
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
    # row t*k + l: the flat coordinates of y^l x^(max(q, d) + t) mod f
    table = np.einsum("lab,tjb->tajl", _linalg.mul_tensor(field), R).reshape(wrap * k, d * k) % p
    if p == 2:
        L = 1
        rows = [_bit_row(r) for r in table.tolist()]
    else:
        L, B = 16, (p - 1 + k * wrap * (p - 1) ** 2).bit_length()
        while B > _linalg._lane_bound(L):
            L += 16
        rows = [_lane_row(r, L) for r in table.tolist()]
        m, s, lanes = _linalg._barrett(p, L, _linalg._lane_bound(L), k * d)
    mask, width = (1 << L) - 1, L * k
    kept = width * (d - wrap)  # the bits of the slots that move up by q
    below, up = (1 << kept) - 1, width * q
    cols = [1 << L * l for l in range(k)]  # column l is y^l
    for c in range(k, k * d):
        col = cols[c - k]
        top = col >> kept
        col = (col & below) << up
        if p == 2:
            while top:
                bit = top & -top
                col ^= rows[bit.bit_length() - 1]
                top ^= bit
        else:
            for i, row in enumerate(rows):
                if a := top >> L * i & mask:
                    col += a * row
            col -= p * (col * m >> s & lanes)
        cols.append(col)
    size = -(-width * d // 8)
    data = np.frombuffer(b"".join(c.to_bytes(size, "little") for c in cols), dtype=np.uint8)
    if p == 2:
        C = np.unpackbits(data.reshape(k * d, size), axis=1, count=k * d, bitorder="little")
    else:  # a coordinate is below 2^16, in the first two bytes of its lane
        C = data.view("<u2").reshape(k * d, k * d, L // 16)[:, :, 0]
    return np.ascontiguousarray(C.T, dtype=np.int64)


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
