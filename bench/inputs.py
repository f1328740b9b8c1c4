"""Seeded inputs for the linperm benchmark, and independent answer checks.

Nothing here imports linperm. Field arithmetic over the small base fields
F_q (q prime, or q = 4, 8 with the moduli linperm uses: y^2 + y + 1 and
y^3 + y + 1) is reimplemented with lookup tables, so that every verdict the
generator promises (unit or not, involution or not) is known before the
program sees the input, and outputs can be checked without the program's own
arithmetic. Field elements are ints whose base-p digits, low first, are the
coordinates, which is how linperm numbers them (`FieldSpec.from_int`).
"""

from __future__ import annotations

import random
import re
from functools import lru_cache

_BINARY_MODULI = {4: 0b111, 8: 0b1011}


class SmallField:
    """F_q by tables: q prime, or q in (4, 8)."""

    def __init__(self, q: int):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        self.q, self.p = q, p
        if q == p:
            self.add = [[(a + b) % p for b in range(q)] for a in range(q)]
            self.mul = [[(a * b) % p for b in range(q)] for a in range(q)]
        elif q in _BINARY_MODULI:
            self.add = [[a ^ b for b in range(q)] for a in range(q)]
            self.mul = [[_clmul(a, b, _BINARY_MODULI[q]) for b in range(q)] for a in range(q)]
        else:
            raise ValueError(f"no table field for q = {q}")
        self.neg = [next(b for b in range(q) if self.add[a][b] == 0) for a in range(q)]
        self.inv = [0] + [next(b for b in range(q) if self.mul[a][b] == 1) for a in range(1, q)]


def _clmul(a: int, b: int, modulus: int) -> int:
    deg = modulus.bit_length() - 1
    out = 0
    for i in range(deg):
        if b >> i & 1:
            out ^= a << i
    for i in range(2 * deg - 2, deg - 1, -1):
        if out >> i & 1:
            out ^= modulus << (i - deg)
    return out


@lru_cache(maxsize=None)
def field(q: int) -> SmallField:
    return SmallField(q)


def _trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _polymod(F: SmallField, a: list, b: list) -> list:
    a = _trim(list(a))
    lead_inv = F.inv[b[-1]]
    db = len(b) - 1
    while len(a) - 1 >= db:
        c = F.mul[a[-1]][lead_inv]
        shift = len(a) - 1 - db
        for i, bi in enumerate(b):
            a[shift + i] = F.add[a[shift + i]][F.neg[F.mul[c][bi]]]
        _trim(a)
    return a


def is_unit(coeffs, q: int, n: int) -> bool:
    """gcd(f, x^n - 1) == 1 over F_q, i.e. the linearized map permutes F_{q^n}."""
    F = field(q)
    a = [F.neg[1]] + [0] * (n - 1) + [1]
    b = _trim(list(coeffs))
    if not b:
        return False
    while b:
        a, b = b, _polymod(F, a, b)
    return len(a) == 1


def cyclic_mul(a, b, q: int, n: int) -> list:
    F = field(q)
    out = [0] * n
    for i, x in enumerate(a):
        if x:
            row = F.mul[x]
            for j, y in enumerate(b):
                if y:
                    k = (i + j) % n
                    out[k] = F.add[out[k]][row[y]]
    return out


def one(n: int) -> list:
    return [1] + [0] * (n - 1)


def coset_count(q: int, n: int) -> int:
    """Number of q-cyclotomic cosets mod n: the number of primitive idempotents."""
    seen, count = set(), 0
    for s in range(n):
        if s not in seen:
            count += 1
            j = s
            while j not in seen:
                seen.add(j)
                j = j * q % n
    return count


# --- text forms ----------------------------------------------------------------

_LIN_TERM = re.compile(r"^(?:([0-9,]+)\*?)?x(?:\^\[(\d+)\])?$")
_RING_TERM = re.compile(r"^(?:([0-9,]+)\*?)?x(?:\^(\d+))?$|^([0-9,]+)$")


def _coeff_int(raw: str, p: int) -> int:
    digits = [int(d) for d in raw.split(",")]
    return sum(d * p**i for i, d in enumerate(digits))


def format_lin(coeffs) -> str:
    """Text of sum c_i x^[i] in the syntax `parse_linearized` reads."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c:
            var = f"x^[{i}]" if i else "x"
            terms.append(var if c == 1 else f"{c}*{var}")
    return "+".join(terms) if terms else "0"


def parse_lin(text: str, q: int, n: int) -> list:
    """Coefficient ints of a linearized polynomial printed with base-field coefficients."""
    F = field(q)
    out = [0] * n
    cleaned = text.replace(" ", "")
    if cleaned == "0":
        return out
    for term in cleaned.split("+"):
        m = _LIN_TERM.match(term)
        if m is None:
            raise ValueError(f"unexpected term {term!r}")
        c = 1 if m.group(1) is None else _coeff_int(m.group(1), F.p)
        i = int(m.group(2) or 0)
        out[i] = F.add[out[i]][c % q if F.p == q else c]
    return out


def parse_ring(text: str, q: int, n: int) -> list:
    """Coefficient ints of a ring element printed by `format_poly`."""
    F = field(q)
    out = [0] * n
    if text == "0":
        return out
    for term in text.split("+"):
        m = _RING_TERM.match(term)
        if m is None:
            raise ValueError(f"unexpected term {term!r}")
        if m.group(3) is not None:
            c, e = _coeff_int(m.group(3), F.p), 0
        else:
            c = 1 if m.group(1) is None else _coeff_int(m.group(1), F.p)
            e = int(m.group(2) or 1)
        out[e] = F.add[out[e]][c]
    return out


def geometric_sums(n: int, q: int, sums) -> list:
    """Expand [(coeff, step, count), ...] into ring coefficients (the example-1 golden form)."""
    F = field(q)
    out = [0] * n
    for c, step, count in sums:
        for j in range(count):
            k = j * step % n
            out[k] = F.add[out[k]][c % q]
    return out


# --- random polynomials with a known verdict -----------------------------------


def random_poly(rng: random.Random, q: int, n: int, unit: bool, support=None, full: bool = False) -> list:
    """Coefficients of a random f that is (or is not) a unit mod x^n - 1.

    `support` limits the nonzero slots to that range of exponents, which
    bounds the Frobenius powers a rank test or an evaluation needs. `full`
    makes every slot nonzero, so that evaluation costs the same for every
    seed.
    """
    slots = range(n) if support is None else support
    while True:
        coeffs = [0] * n
        for i in slots:
            coeffs[i] = rng.randrange(1, q) if full else rng.randrange(q)
        if any(coeffs) and is_unit(coeffs, q, n) == unit:
            return coeffs


def _interleave(rng: random.Random, groups: list[list]) -> list:
    """Shuffle each group, then deal them out round-robin so the kinds alternate."""
    for g in groups:
        rng.shuffle(g)
    out, longest = [], max(len(g) for g in groups)
    for i in range(longest):
        for g in groups:
            if i < len(g):
                out.append(g[i])
    return out


def _perm_checks(rng, q, n, units, non_units, support=None):
    return [
        {"kind": "is-perm", "q": q, "n": n, "expect": unit,
         "poly": format_lin(random_poly(rng, q, n, unit, support))}
        for unit in [True] * units + [False] * non_units
    ]


def _inverts(rng, q, n, count, support=None):
    return [
        {"kind": "invert", "q": q, "n": n, "poly": format_lin(random_poly(rng, q, n, True, support))}
        for _ in range(count)
    ]


# Over (2,255) the polynomials use exponents below 16 only: a rank test then
# needs 15 Frobenius powers (8 MB) instead of all 254 (130 MB, 6 s to build).
_SPARSE_255 = range(16)


def ring_queries(seed: int, goldens: dict) -> dict:
    """Warm symbolic queries on base-coefficient polynomials.

    One cycle holds a fixed number of ops of each kind on each ring, so the
    cost mix is the same for every seed; the seed picks the polynomials and
    the golden rows. Most ops are on the small rings, so the p50 reads the
    per-call overheads of the ring kernels, while the p90 and the throughput
    read the (3,125), (8,11) and (2,255) queries.
    """
    rng = random.Random(f"ring-queries:{seed}")
    three_terms = [i for i, t in enumerate(goldens["table1"]) if t.count("x") == 3]
    groups = [
        _perm_checks(rng, 3, 25, 18, 9) + _inverts(rng, 3, 25, 6),
        _perm_checks(rng, 11, 9, 18, 9) + _inverts(rng, 11, 9, 6),
        _perm_checks(rng, 3, 125, 4, 2) + _inverts(rng, 3, 125, 2),
        _perm_checks(rng, 8, 11, 2, 1) + _inverts(rng, 8, 11, 3),
        _perm_checks(rng, 2, 255, 2, 1, _SPARSE_255) + _inverts(rng, 2, 255, 1, _SPARSE_255),
        [{"kind": "involutions", "q": q, "n": n} for q, n in ((3, 25), (3, 25), (11, 9), (11, 9), (3, 125))],
        [{"kind": "golden-table1", "row": r} for r in rng.sample(three_terms, 3)]
        + [{"kind": "golden-table2", "row": r} for r in range(len(goldens["table2"]))]
        + [{"kind": "golden-table3"}] * 2
        + [{"kind": "golden-f8n11", "t": rng.randrange(1, 11)}],
    ]
    groups.append([dict(c, kind="cli") for c in _cli_commands(rng, goldens)])
    rings = [(3, 25, 25), (3, 125, 125), (11, 9, 9), (8, 11, 11), (2, 255, len(_SPARSE_255))]
    return {"rings": rings, "cycle": _interleave(rng, groups)}


def _sum(F: SmallField, coeffs) -> int:
    total = 0
    for c in coeffs:
        total = F.add[total][c]
    return total


def _full_unit(rng: random.Random, q: int, n: int) -> list:
    """A unit with every coefficient nonzero; over F_2 (no such unit) a monomial."""
    if q == 2:
        coeffs = [0] * n
        coeffs[rng.randrange(n)] = 1
        return coeffs
    return random_poly(rng, q, n, True, full=True)


def _collides_at_one(rng: random.Random, q: int, n: int) -> list:
    """A non-unit with f(1) = 0 and every coefficient nonzero (over F_2, two).

    Then F(1) = f(1) = 0 = F(0), so brute force stops at its second point,
    the constant 1, whatever the seed.
    """
    F = field(q)
    if q == 2:
        coeffs = [0] * n
        for i in rng.sample(range(n), 2):
            coeffs[i] = 1
        return coeffs
    while True:
        rest = [rng.randrange(1, q) for _ in range(n - 1)]
        head = F.neg[_sum(F, rest)]
        if head:
            return [head] + rest


def _perturbed_involutions(rng: random.Random, table3: list, count: int) -> list:
    """Golden involutions with one coefficient changed, such that f^2 - 1 is a unit.

    Then F(F(a)) = a only at a = 0, so the pointwise check fails at its first
    sample, whatever the seed.
    """
    n, q = 9, 11
    out = []
    while len(out) < count:
        f = list(parse_lin(rng.choice(table3), q, n))
        i = rng.randrange(n)
        f[i] = (f[i] + rng.randrange(1, q)) % q
        sq = cyclic_mul(f, f, q, n)
        sq[0] = (sq[0] - 1) % q
        if any(sq) and is_unit(sq, q, n):
            out.append(format_lin(f))
    return out


def pointwise_oracle(seed: int, goldens: dict) -> dict:
    """Warm element-level work: brute-force bijections, pointwise involutions, shift orbits.

    Every op's cost is fixed by the cycle, not by the seed: units have every
    coefficient nonzero (over F_2, one), so brute force evaluates every point
    of the field; non-units collide at the second point; perturbed
    involutions fail at the first sample; and half the shift orbits have
    length 5, half length 10.
    """
    rng = random.Random(f"pointwise-oracle:{seed}")
    fields_ = [(2, 3), (4, 3), (5, 2), (3, 5)]
    groups = []
    for q, n in fields_:
        units, non_units = (3, 3) if (q, n) == (3, 5) else (8, 4)
        groups.append(
            [{"kind": "bijection", "q": q, "n": n, "expect": True,
              "poly": format_lin(_full_unit(rng, q, n))} for _ in range(units)]
            + [{"kind": "bijection", "q": q, "n": n, "expect": False,
                "poly": format_lin(_collides_at_one(rng, q, n))} for _ in range(non_units)]
        )
    samples = 12
    groups.append(
        [
            {"kind": "pointwise-involution", "poly": t, "samples": samples,
             "sample_seed": rng.randrange(2**31), "expect": True}
            for t in goldens["table3"] * 2
        ]
        + [
            {"kind": "pointwise-involution", "poly": t, "samples": samples,
             "sample_seed": rng.randrange(2**31), "expect": False}
            for t in _perturbed_involutions(rng, goldens["table3"], 16)
        ]
    )
    # alpha = scale * root^2 has norm scale^5 = scale in F_3: orbit length 5 * ord(scale)
    groups.append(
        [
            {"kind": "shift-orbit", "poly": format_lin(_full_unit(rng, 3, 5)),
             "root": rng.randrange(1, 3**5), "scale": scale, "expect": 5 * order}
            for scale, order in [(1, 1)] * 16 + [(2, 2)] * 16
        ]
    )
    rings = [(q, n, n) for q, n in fields_ + [(11, 9)]]
    return {"rings": rings, "cycle": _interleave(rng, groups)}


def _verdict(rng: random.Random, command: str, q: int, n: int, unit: bool) -> dict:
    poly = format_lin(random_poly(rng, q, n, unit))
    return {"args": [command, "--q", str(q), "--n", str(n), "--poly", poly],
            "check": "verdict", "expect": unit}


def _cli_commands(rng: random.Random, goldens: dict) -> list:
    """`linperm ... --json` argument lists, on ring-queries' fields, and what each must print."""
    cmds = [_verdict(rng, "is-perm", 3, 25, True), _verdict(rng, "is-perm", 3, 25, False)]
    row = rng.randrange(len(goldens["table2"]))
    cmds.append({"args": ["invert", "--q", "3", "--n", "25", "--poly", goldens["table2"][row][0]],
                 "check": "inverse", "expect": goldens["table2"][row][1]})
    cmds.append({"args": ["involutions", "--q", "11", "--n", "9"],
                 "check": "involutions", "expect": goldens["table3"]})
    ft, t = rng.randrange(1, 8), rng.randrange(1, 11)
    lams = sorted({0} | set(rng.sample([lam for lam in range(1, 8) if lam != ft], 3)))
    cmds.append({"args": ["complete", "--q", "8", "--n", "11", "--poly", f"{ft}x^[{t}]",
                          "--lambda-set", ",".join(map(str, lams))],
                 "check": "verdict", "expect": True})
    cmds.append({"args": ["idempotents", "--q", "3", "--n", "125", "--closed-form"],
                 "check": "idempotents", "expect": sorted(goldens["example1"].values())})
    for c in cmds:
        c["args"].append("--json")
    return cmds


WORKLOADS = {
    "ring-queries": ring_queries,
    "pointwise-oracle": pointwise_oracle,
}
