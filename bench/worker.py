"""In-process worker for the workloads (`ring-queries`, `pointwise-oracle`).

Run as `python bench/worker.py INPUTS_JSON TRACE_NPZ_OR_-` with linperm on
the path. It imports linperm, builds every field, factorization, idempotent
basis and Frobenius table the inputs use, runs one warm-up cycle of the ops
(which fills the lazy caches), prints one `ready` line and waits for a
command on stdin: `exit`, or `go SECONDS`. After `go` it runs whole cycles of
the input ops until SECONDS have passed, checks every answer and prints one
JSON result line. Without a trace path, a `HostClock` probes the host's
speed through the set-up and the timed cycles, and the ready and result
lines carry what it saw. With a trace path it instead traces the build, runs
one cycle untraced and the same cycle traced, and reports per-layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs as gen  # noqa: E402
from hostspeed import HostClock  # noqa: E402

# an untraced worker probes the host's speed from before it imports linperm
SETUP_CLOCK = HostClock() if __name__ == "__main__" and sys.argv[2:3] == ["-"] else None
if SETUP_CLOCK:
    SETUP_CLOCK.start()

_t0 = time.perf_counter()
import linperm as L  # noqa: E402
from linperm import cli as _cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0


class Context:
    """Fields and idempotent bases keyed by (q, n), built once in set-up.

    `rings` holds (q, n, k) triples: the ops use Frobenius powers 0..k-1 only.
    """

    def __init__(self, rings):
        self.rings = {}
        for q, n, k in rings:
            # the CLI asks for extension_field(q, n, seed) with seed=0 spelled
            # out, which lru_cache keys apart from extension_field(q, n)
            ext = L.extension_field(q, n, 0)
            basis = L.primitive_idempotents(L.RingSpec(L.base_field(q), n))
            # a rank test of x + x^[k-1] builds Frobenius powers 1..k-1
            probe = L.identity(ext) + L.LinearizedPoly.monomial(ext, ext.one(), k - 1)
            L.is_permutation_rank(probe)
            self.rings[(q, n)] = (ext, basis)

    def ext(self, q, n):
        return self.rings[(q, n)][0]

    def basis(self, q, n):
        return self.rings[(q, n)][1]


# --- ops: each returns a JSON-able answer; checks run after the timed phase ---


def _perm_tests(ctx, q, n, text):
    F = L.parse_linearized(text, ctx.ext(q, n))
    return [L.is_permutation(F, ctx.basis(q, n)), L.is_permutation_gcd(F), L.is_permutation_rank(F)]


def _involutions(ctx, q, n):
    invs = L.sign_vector_involutions(ctx.basis(q, n), ctx.ext(q, n))
    return [all(L.is_involution(F) for F in invs), sorted(L.format_linearized(F) for F in invs)]


def op_is_perm(ctx, op):
    return _perm_tests(ctx, op["q"], op["n"], op["poly"])


def op_invert(ctx, op):
    q, n = op["q"], op["n"]
    F = L.parse_linearized(op["poly"], ctx.ext(q, n))
    return L.format_linearized(L.compositional_inverse(F, ctx.basis(q, n)))


def op_involutions(ctx, op):
    return _involutions(ctx, op["q"], op["n"])


def op_golden_table1(ctx, op):
    return _perm_tests(ctx, 3, 125, _cli.GOLDEN_TABLE1[op["row"]])


def op_golden_table2(ctx, op):
    F = L.parse_linearized(_cli.GOLDEN_TABLE2[op["row"]][0], ctx.ext(3, 25))
    return L.format_linearized(L.compositional_inverse(F, ctx.basis(3, 25)))


def op_golden_table3(ctx, op):
    return _involutions(ctx, 11, 9)


def op_golden_f8n11(ctx, op):
    ext, t = ctx.ext(8, 11), op["t"]
    out = []
    for ft in range(1, 8):
        for lam in range(8):
            text = f"{ft}x^[{t}]" + (f"+{lam}x" if lam else "")
            out.append(L.is_permutation_gcd(L.parse_linearized(text, ext)))
    return out


def op_bijection(ctx, op):
    F = L.parse_linearized(op["poly"], ctx.ext(op["q"], op["n"]))
    return [L.is_bijection_bruteforce(F), L.is_permutation_gcd(F)]


def op_pointwise_involution(ctx, op):
    F = L.parse_linearized(op["poly"], ctx.ext(11, 9))
    return L.involution_check_pointwise(F, op["samples"], op["sample_seed"])


def op_shift_orbit(ctx, op):
    ext = ctx.ext(3, 5)
    F = L.parse_linearized(op["poly"], ext)
    root = ext.from_int(op["root"])
    alpha = ext.from_int(op["scale"]) * root * root
    k = L.cyclic_order(F, alpha)
    cur, steps = L.alpha_shift(F, alpha), 1
    while cur != F and steps <= 2 * k:
        cur, steps = L.alpha_shift(cur, alpha), steps + 1
    return [k, steps]


def op_cli(ctx, op):
    """`linperm ARGS` in this process: warm caches, same parsing and JSON output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = _cli.main(op["args"])
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    return [code, out.getvalue()]


OPS = {
    "cli": op_cli,
    "is-perm": op_is_perm,
    "invert": op_invert,
    "involutions": op_involutions,
    "golden-table1": op_golden_table1,
    "golden-table2": op_golden_table2,
    "golden-table3": op_golden_table3,
    "golden-f8n11": op_golden_f8n11,
    "bijection": op_bijection,
    "pointwise-involution": op_pointwise_involution,
    "shift-orbit": op_shift_orbit,
}


# --- checks: independent of the program's arithmetic where possible ----------


def _involution_set_ok(answer, q, n) -> bool:
    all_pass, texts = answer
    polys = [gen.parse_lin(t, q, n) for t in texts]
    return (
        all_pass
        and len({tuple(f) for f in polys}) == len(polys) == 2 ** gen.coset_count(q, n)
        and all(gen.cyclic_mul(f, f, q, n) == gen.one(n) for f in polys)
    )


def check(op, answer) -> bool:
    kind = op["kind"]
    if kind in ("is-perm", "bijection"):
        return answer == [op["expect"]] * len(answer)
    if kind == "invert":
        q, n = op["q"], op["n"]
        f, g = gen.parse_lin(op["poly"], q, n), gen.parse_lin(answer, q, n)
        return gen.cyclic_mul(f, g, q, n) == gen.one(n)
    if kind == "involutions":
        return _involution_set_ok(answer, op["q"], op["n"])
    if kind == "golden-table1":
        return answer == [True, True, True]
    if kind == "golden-table2":
        want = _cli.GOLDEN_TABLE2[op["row"]][1]
        return gen.parse_lin(answer, 3, 25) == gen.parse_lin(want, 3, 25)
    if kind == "golden-table3":
        want = {tuple(gen.parse_lin(t, 11, 9)) for t in _cli.GOLDEN_TABLE3}
        got = {tuple(gen.parse_lin(t, 11, 9)) for t in answer[1]}
        return _involution_set_ok(answer, 11, 9) and got == want
    if kind == "golden-f8n11":
        return answer == [lam != ft for ft in range(1, 8) for lam in range(8)]
    if kind == "pointwise-involution":
        return answer is op["expect"]
    if kind == "shift-orbit":
        return answer == [op["expect"]] * 2
    if kind == "cli":
        code, text = answer
        return check_cli(op, code, text)
    raise ValueError(f"unknown op kind {kind!r}")


def _checks_pass(doc) -> bool:
    return all(c["passed"] for c in doc.get("checks", []))


def check_cli(cmd, returncode: int, stdout: str) -> bool:
    """The exit code and JSON document of `linperm ARGS --json`."""
    kind, expect = cmd["check"], cmd["expect"]
    try:
        doc = json.loads(stdout)
    except ValueError:
        return False
    out = doc.get("outputs", {})
    if kind == "verdict":
        keys_ok = all(out[k] == expect for k in ("permutation", "bijection", "complete") if k in out)
        return returncode == (0 if expect else 1) and _checks_pass(doc) == expect and keys_ok
    if returncode != 0 or not _checks_pass(doc):
        return False
    if kind == "inverse":
        return gen.parse_lin(out["inverse"], 3, 25) == gen.parse_lin(expect, 3, 25)
    if kind == "involutions":
        got = {tuple(gen.parse_lin(t, 11, 9)) for t in out["involutions"]}
        return len(got) == len(out["involutions"]) and got == {tuple(gen.parse_lin(t, 11, 9)) for t in expect}
    if kind == "idempotents":
        got = {tuple(gen.parse_ring(d["idempotent"], 3, 125)) for d in out["idempotents"]}
        return got == {tuple(gen.geometric_sums(125, 3, sums)) for sums in expect}
    raise ValueError(f"unknown check {kind!r}")


class Checker:
    """Checks each (op, answer) pair once; a repeated identical answer reuses the verdict."""

    def __init__(self, cycle):
        self.cycle = cycle
        self.verdicts = {}

    def __call__(self, index: int, answer) -> bool:
        key = (index, json.dumps(answer))
        if key not in self.verdicts:
            try:
                self.verdicts[key] = bool(check(self.cycle[index], answer))
            except Exception:
                self.verdicts[key] = False
        return self.verdicts[key]


def run_op(ctx, op):
    """(answer, error): the answer is None when the op raised."""
    try:
        return OPS[op["kind"]](ctx, op), None
    except Exception as exc:
        return None, f"{op['kind']}: {type(exc).__name__}: {exc}"


MIN_CYCLES = 2


def timed_cycles(ctx, cycle, seconds: float, tracer=None, once: bool = False, clock=None) -> dict:
    """Run whole cycles until `seconds` and MIN_CYCLES have passed (or one cycle if `once`).

    Returns per-op latencies, the failure count and the first few failures. An
    op fails when it raises or when its answer does not check out. With a
    running `HostClock`, each op is bracketed by probes, its latency excludes
    the probe time inside it, and `factors` holds each op's speed factor.
    """
    checker = Checker(cycle)
    latencies, factors, cycles_s, answers, errors = [], [], [], [], []
    spans = []
    start = time.perf_counter()
    op_id = 0
    while True:
        cycle_start = time.perf_counter()
        for index, op in enumerate(cycle):
            sid = tracer.begin_op(op_id, f"op.{op['kind']}") if tracer else None
            if clock:
                clock.probe()
                spent = clock.spent_s
            t0 = time.perf_counter()
            answer, error = run_op(ctx, op)
            t1 = time.perf_counter()
            if clock:
                latencies.append(t1 - t0 - (clock.spent_s - spent))
                spans.append((t0, t1))
                clock.probe()
            else:
                latencies.append(t1 - t0)
            if tracer:
                tracer.end_op(sid)
            answers.append((index, answer, error))
            op_id += 1
        cycles_s.append(time.perf_counter() - cycle_start)
        elapsed = time.perf_counter() - start
        if once or (elapsed >= seconds and len(cycles_s) >= MIN_CYCLES):
            break
    if clock:
        factors = [clock.factor(t0, t1) for t0, t1 in spans]
    failed = 0
    for index, answer, error in answers:
        if error is None and checker(index, answer):
            continue
        failed += 1
        if len(errors) < 5:
            errors.append(error or f"wrong answer to {cycle[index]}: {str(answer)[:200]}")
    return {"elapsed_s": elapsed, "cycles_s": cycles_s, "latencies_s": latencies, "factors": factors,
            "answers": [answer for _, answer, _ in answers], "attempted": len(answers),
            "failed": failed, "errors": errors}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv) -> int:
    inputs_path, trace_path = argv[1], argv[2]
    work = json.loads(Path(inputs_path).read_text())
    cycle = work["cycle"]
    tracer, clock = None, SETUP_CLOCK
    if trace_path != "-":
        import tracer as tracing

        tracer = tracing.Tracer()
        caches_before = tracing.cache_counts()
        tracer.install()
        sid = tracer.begin_op(tracing.ROOT, "setup")
    ctx = Context(work["rings"])
    if tracer:
        tracer.end_op(sid)
        tracer.uninstall()
    # set-up ends with one cycle, so that lazy first-use fills count in set-up time
    warm = timed_cycles(ctx, cycle, 0, once=True)
    ready = {"ready": True}
    if clock:
        clock.stop()
        ready.update(probe_spent_s=clock.spent_s, speed_factor=clock.mean_factor())
    if tracer:
        caches_setup = tracing.cache_counts()
    print(json.dumps(ready), flush=True)
    command = sys.stdin.readline().split()
    if not command or command[0] != "go":
        return 0
    seconds = float(command[1])
    if tracer is None:
        clock = HostClock()
        clock.start()
        result = timed_cycles(ctx, cycle, seconds, clock=clock)
        clock.stop()
        result["speed_factor"] = clock.mean_factor()
    else:
        plain = timed_cycles(ctx, cycle, seconds, once=True)
        caches_plain = tracing.cache_counts()
        tracer.install()
        result = timed_cycles(ctx, cycle, seconds, tracer=tracer, once=True)
        tracer.uninstall()
        caches_end = tracing.cache_counts()
        layers = tracer.layer_metrics()
        for name in caches_end:
            for i, kind in enumerate(("hits", "misses")):
                layers[f"cache.{name}.{kind}"] = (
                    caches_setup[name][i] - caches_before[name][i]
                    + caches_end[name][i] - caches_plain[name][i]
                )
        layers["trace.overhead_ratio"] = result["elapsed_s"] / plain["elapsed_s"]
        # the in-process `linperm` calls of the untraced cycle: L5 minus process start
        cli_ops = [i for i, op in enumerate(cycle) if op["kind"] == "cli"]
        layers["cli.import_s"] = IMPORT_S
        layers["cli.process_s"] = sum(plain["latencies_s"][i] for i in cli_ops)
        layers["cli.stdout_bytes"] = sum(len(plain["answers"][i][1]) for i in cli_ops
                                         if plain["answers"][i] is not None)
        result["layers"] = layers
        for key in ("latencies_s", "cycles_s", "elapsed_s", "attempted", "failed"):
            result[key] = plain[key] + result[key]
        result["errors"] = plain["errors"] + result["errors"]
        tracer.dump(trace_path)
    # the warm-up cycle's answers are checked and counted too, but not timed
    result["attempted"] += warm["attempted"]
    result["failed"] += warm["failed"]
    result["errors"] = (warm["errors"] + result["errors"])[:5]
    del result["answers"]
    result["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv))
    except Exception:
        traceback.print_exc()
        sys.exit(3)
