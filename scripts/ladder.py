#!/usr/bin/env python3
"""The layer ladder: fixed timings of each layer of linperm on fixed fields.

Usage, from the repository root: PYTHONPATH=src python scripts/ladder.py

Each line is one JSON object: ``layer`` (ROADMAP.md's L0-L5), ``op``, ``field``,
``kind``, ``value`` and ``unit``. A warm number (us) is the median of 5 rounds
of about ROUND_S s after a warm-up call, in one process with one OpenBLAS
thread (README Notes). A cold (ms) or memory number is the median of 3 fresh
processes. Every process gets TIMEOUT_S s. The ladder exits 1 when a process
fails or two library paths disagree; no number can fail it.
"""

import contextlib, io, json, os, random, resource, statistics, subprocess, sys, time, timeit

import numpy as np

from linperm import (
    ExtFieldSpec, FieldSpec, LinearizedPoly, RingSpec, alpha_shift, base_field, cli, compose,
    compositional_inverse, conventional_associate, cyclic_order, extension_field,
    factor_xn_minus_1, format_linearized, identity, integer_order_mod, involution_check_pointwise,
    is_bijection_bruteforce, is_permutation_gcd, is_permutation_rank, norm, parse_linearized,
    primitive_idempotents, project, ring_is_unit,
)
from linperm._linalg import matmul_mod, rank_mod
from linperm._polys import _frobenius_q, pdivmod, pegcd, pgcd, pone, psub, ptrim
from linperm.fields import _frobenius_power
from linperm.polyring import splitting_field

ROUND_S = 0.01
TIMEOUT_S = 300

def emit(layer, op, field, kind, value, unit):
    record = dict(layer=layer, op=op, field=field, kind=kind, value=round(value, 3), unit=unit)
    print(json.dumps(record), flush=True)

def agree(a, b, what):
    if a != b:
        sys.exit(f"ladder: {what} disagree")

def warm(layer, op, field, fn):
    fn()
    timer, number = timeit.Timer(fn), 1
    while timer.timeit(number) < ROUND_S:
        number *= 2
    emit(layer, op, field, "warm", statistics.median(timer.repeat(5, number)) / number * 1e6, "us")

def cold(layer, op, field, fn, *args, **kwargs):
    """fn(*args, **kwargs), its wall time emitted as a cold number."""
    t = time.perf_counter()
    out = fn(*args, **kwargs)
    emit(layer, op, field, "cold", (time.perf_counter() - t) * 1e3, "ms")
    return out

def seeded(q, n, terms, top):
    """The seeded F over F_{q^n}: `terms` nonzero F_q coefficients in its first `top` slots."""
    E, rng = extension_field(q, n, 0), random.Random(n)
    coeffs = {i: rng.randrange(1, E.base.q) for i in rng.sample(range(top), terms)}
    return LinearizedPoly(E, tuple(E.embed(E.base.from_int(coeffs.get(i, 0))) for i in range(n)))

def euclid_inputs(q, n):
    """F_q, a seeded f of degree below n, x^n - 1, and the generator after f."""
    K, rng = base_field(q), random.Random(n)
    f = ptrim(K, tuple(rng.randrange(K.p) for _ in range(K.k * n)))
    return K, f, psub(K, (0,) * (K.k * n) + pone(K), pone(K)), rng

# cold entries: each call in COLD runs alone in a fresh process
def cold_ring(q, n):
    ring, field = RingSpec(base_field(q), n), f"({q},{n})"
    cold("L3", "factor_xn_minus_1", field, factor_xn_minus_1, ring)
    basis = cold("L3", "primitive_idempotents after the factors: the basis check", field,
                 primitive_idempotents, ring)
    cold("L3", "P/R build (first project)", field, project, ring.one(), basis)

def cold_extension_field(q, n):
    cold("L3", "extension_field", f"({q},{n})", extension_field, q, n)

def cold_splitting_field(q, n):
    op = f"splitting_field, degree {integer_order_mod(q, n)}"
    cold("L3", op, f"({q},{n})", splitting_field, RingSpec(base_field(q), n))

def cold_euclid(q, n):
    K, f, m, rng = euclid_inputs(q, n)
    a = tuple(rng.randrange(K.p) for _ in range(K.k * (n - 1))) + pone(K)
    b = tuple(rng.randrange(K.p) for _ in range(K.k * (n - n // 2))) + pone(K)
    cold("L2", "pgcd with x^n - 1", f"({q},{n})", pgcd, K, f, m)
    cold("L2", "pegcd with x^n - 1", f"({q},{n})", pegcd, K, f, m)
    cold("L2", f"pdivmod with a {n // 2}-slot quotient", f"({q},{n})", pdivmod, K, a, b)

def cold_rank_mod(p, size):
    M = np.random.default_rng(size).integers(0, p, (size, size))
    rank = cold("L2", f"rank_mod {size}x{size}", f"F_{p}", rank_mod, M, p)
    agree(rank, rank_mod(M.T, p), "rank_mod of M and of its transpose")

def frobenius_memory(q, n, powers):
    """The bytes of the cached Frobenius powers that ring-queries reads, and the peak RSS."""
    E, field = extension_field(q, n), f"({q},{n})"
    held = sum(_frobenius_power(E, i).nbytes for i in powers)
    emit("L3", f"Frobenius powers {powers.start}..{powers.stop - 1}", field, "memory", held, "bytes")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    emit("L3", "peak RSS, those powers held", field, "memory", peak, "KiB")

def cold_cli(threads):
    """A cold `linperm is-perm` process, with OpenBLAS's default or one thread."""
    argv = "-m linperm.cli is-perm --q 3 --n 125 --poly x^[7]+2*x^[3]+x".split()
    env = {**os.environ, **({} if threads == "default" else {"OPENBLAS_NUM_THREADS": threads})}
    cold("L5", f"is-perm, OpenBLAS threads {threads}", "(3,125)", subprocess.run,
         [sys.executable, *argv], env=env, stdout=subprocess.DEVNULL, timeout=TIMEOUT_S, check=True)

COLD = [
    *(f"cold_ring({q}, {n})" for q, n in ((3, 125), (2, 255), (5, 311), (2, 1023))),
    *(f"cold_{build}({q}, {n})" for q, n in ((3, 125), (2, 255), (5, 311))
      for build in ("extension_field", "splitting_field")),
    *(f"cold_euclid({q}, {n})" for q, n in ((5, 311), (3, 125), (2, 1023), (4, 255))),
    *(f"cold_rank_mod({p}, {size})" for p, size in ((2, 255), (3, 125), (65521, 300))),
    "frobenius_memory(3, 125, range(125))", "frobenius_memory(2, 255, range(1, 16))",
    "cold_cli('default')", "cold_cli('1')",
]

def warm_ladder():
    """Every warm entry, in one fresh process."""
    K, E5 = base_field(9), extension_field(3, 5)
    x, y, a, b = K.from_int(5), K.from_int(7), E5.from_int(100), E5.from_int(200)
    warm("L0", "FieldElement product", "F_9", lambda: x * y)
    for layer, name, field, spec, apart in (
        ("L0", "FieldSpec", "F_8", base_field(8), FieldSpec(2, 3, (1, 1, 0, 1))),
        ("L1", "ExtFieldSpec", "(3,5)", E5, ExtFieldSpec(FieldSpec(3), 5, E5.ext_modulus)),
        ("L2", "RingSpec", "(3,5)", RingSpec(base_field(3), 5), RingSpec(FieldSpec(3), 5)),
    ):
        warm(layer, f"hash {name}", field, lambda: hash(spec))
        warm(layer, f"== same {name}", field, lambda: spec == spec)
        warm(layer, f"== built apart {name}", field, lambda: spec == apart)
    warm("L1", "ExtElement product", "(3,5)", lambda: a * b)
    warm("L1", "norm", "(3,5)", lambda: norm(a))
    S = splitting_field(RingSpec(base_field(3), 125))
    g = S.from_int(2)
    warm("L1", f"cofactor power in F_{{3^{S.n}}}", "(3,125)", lambda: g ** ((S.order - 1) // 125))
    for p, size in ((3, 5), (11, 9), (3, 25), (3, 64), (3, 125), (2, 33), (2, 255)):
        M = np.random.default_rng(size).integers(0, p, (size, size)).astype(np.int16)
        agree(rank_mod(M, p), rank_mod(M.T, p), "rank_mod of M and of its transpose")
        warm("L2", f"rank_mod {size}x{size}", f"F_{p}", lambda: rank_mod(M, p))
    for p, size in ((3, 125), (2, 255)):
        A, B = np.random.default_rng(size).integers(0, p, (2, size, size)).astype(np.uint16)
        warm("L2", f"matmul_mod {size}x{size}", f"F_{p}", lambda: matmul_mod(A, B, p))
    for q, n in ((3, 25), (3, 125), (2, 255), (8, 11), (4, 3)):
        K, f, m, _ = euclid_inputs(q, n)
        agree(pgcd(K, f, m), pegcd(K, f, m)[0], "pgcd and pegcd's g")
        warm("L2", "pgcd with x^n - 1", f"({q},{n})", lambda: pgcd(K, f, m))
        warm("L2", "pegcd with x^n - 1", f"({q},{n})", lambda: pegcd(K, f, m))
    for q, n, top in ((3, 125, 125), (2, 255, 16), (8, 11, 11)):
        F, field, terms = seeded(q, n, min(top, 85), top), f"({q},{n})", min(top, 85)
        agree(is_permutation_rank(F), is_permutation_gcd(F), "the rank and gcd tests")
        warm("L2", "conventional_associate", field, lambda: conventional_associate(F))
        warm("L4", f"is_permutation_rank {terms} terms", field, lambda: is_permutation_rank(F))
    f = conventional_associate(F)  # the loop's last F, at (8,11)
    warm("L2", "ring_is_unit", "(8,11)", lambda: ring_is_unit(f))
    for q, n in ((2, 255), (3, 125), (8, 11), (11, 9)):
        E = extension_field(q, n)
        warm("L3", "_frobenius_q", f"({q},{n})", lambda: _frobenius_q(E.base, E.ext_modulus))
    walk = lambda: [_frobenius_power.cache_clear(), *(_frobenius_power(E, i) for i in range(125))]
    warm("L3", "Frobenius walk 0..124 from an empty cache", "(3,125)", walk)
    texts = {(2, 3): "x", (3, 5): "2x^[3]+x^[1]+x", (11, 9): cli.GOLDEN_TABLE3[3],
             (3, 25): cli.GOLDEN_TABLE2[0][0], **{(q, n): format_linearized(seeded(q, n, t, top))
             for q, n, t, top in ((8, 11, 11, 11), (3, 125, 85, 125), (2, 255, 6, 16))}}
    for (q, n), text in texts.items():
        E, op = extension_field(q, n, 0), f"linearized {text.count('x')} terms"
        F = parse_linearized(text, E)
        agree(parse_linearized(format_linearized(F), E), F, "parse_linearized and format_linearized")
        warm("L4", f"parse_{op}", f"({q},{n})", lambda: parse_linearized(text, E))
        warm("L4", f"format_{op}", f"({q},{n})", lambda: format_linearized(F))
    F = parse_linearized(cli.GOLDEN_TABLE3[1], extension_field(11, 9))
    op = "involution_check_pointwise 12 samples"
    warm("L4", op, "(11,9)", lambda: involution_check_pointwise(F, 12, 1))
    for q, n, text in ((3, 5, "2x^[3]+x^[1]+x"), (2, 13, "x^[1]")):
        F = parse_linearized(text, extension_field(q, n))
        agree(is_bijection_bruteforce(F), is_permutation_rank(F), "the brute-force and rank tests")
        warm("L4", "is_bijection_bruteforce", f"({q},{n})", lambda: is_bijection_bruteforce(F))
    F = LinearizedPoly(E5, tuple(E5.from_int(v) for v in (17, 42, 99, 150, 230)))
    warm("L4", "alpha_shift dense F, operator path", "(3,5)", lambda: alpha_shift(F, a))
    F = parse_linearized("2x^[3]+x^[1]+x", E5)
    warm("L4", "cyclic_order", "(3,5)", lambda: cyclic_order(F, a))
    argv = ["is-perm", "--q", "3", "--n", "5", "--poly", "2x^[3]+x^[1]+x"]
    with contextlib.redirect_stdout(io.StringIO()):
        agree(cli.main(argv) == 0, is_permutation_rank(F), "cli.main's exit code and the rank test")
        warm("L5", "cli.main is-perm", "(3,5)", lambda: cli.main(argv))
    E = extension_field(3, 125)
    F, alpha = parse_linearized("x^[7]+2*x^[3]+x", E), E.from_int(100)
    warm("L4", "alpha_shift 3-term F, support path", "(3,125)", lambda: alpha_shift(F, alpha))
    for q, n, text in ((5, 311, "x^[3]+x^[1]+x"), (3, 125, "x^[1]+x")):
        E = extension_field(q, n, 0)
        F = parse_linearized(text, E)
        inverse = compositional_inverse(F, primitive_idempotents(RingSpec(base_field(q), n)))
        agree(compose(F, inverse), identity(E), "compose(F, F^-1) and x")
        op = f"compose(F, F^-1), F = {text}, F^-1 of {inverse.coords.any(axis=1).sum()} terms"
        warm("L4", op, f"({q},{n})", lambda: compose(F, inverse))

def fresh(call, **env):
    """The stdout of this script's `call` in a fresh python process."""
    path = os.pathsep.join(filter(None, (os.path.dirname(os.path.abspath(__file__)),
                                         os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", f"import ladder; ladder.{call}"], text=True,
                          stdout=subprocess.PIPE, timeout=TIMEOUT_S, check=True,
                          env={**os.environ, "PYTHONPATH": path, **env}).stdout

def main():
    print(fresh("warm_ladder()", OPENBLAS_NUM_THREADS="1"), end="", flush=True)
    runs = {}
    for _ in range(3):
        for record in map(json.loads, "".join(fresh(call) for call in COLD).splitlines()):
            value = record.pop("value")
            runs.setdefault(tuple(record.values()), []).append(value)
    for (layer, op, field, kind, unit), values in runs.items():
        emit(layer, op, field, kind, statistics.median(values), unit)

if __name__ == "__main__":
    main()
