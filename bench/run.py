"""linperm benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; linperm is imported from ./src. Each run is a
single closed loop with one caller. With --trace 0 it prints the end-to-end
metrics, with --trace 1 the per-layer metrics of a separate traced run; the
last line of stdout is always one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. End-to-end times are normalised to a
reference host speed (hostspeed.py). See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import inputs as gen  # noqa: E402

# fresh workers set up per run; more where set-up is cheap, since its median is noisier
SETUP_REPEATS = {"ring-queries": 3, "pointwise-oracle": 5}
WORKER = str(BENCH / "worker.py")
DEADLINE_S = 170


class BenchError(Exception):
    """The benchmark could not run the workload at all (not a wrong answer)."""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def load_goldens(root: Path) -> dict:
    sys.path.insert(0, str(root / "src"))
    from linperm import cli

    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        raise BenchError(f"linperm imported from {cli.__file__}, not from {root / 'src'}")
    return {
        "table1": list(cli.GOLDEN_TABLE1),
        "table2": [list(row) for row in cli.GOLDEN_TABLE2],
        "table3": list(cli.GOLDEN_TABLE3),
        "example1": cli.GOLDEN_EXAMPLE1,
    }


def percentile(values, pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


# --- a worker process per set-up -------------------------------------------------


def _read_line(proc, deadline: float) -> str:
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
    line = proc.stdout.readline() if ready else ""
    if not line:
        raise BenchError(f"worker gave no output (exit {proc.poll()})")
    return line


def _worker(inputs_path: Path, trace_path: str, env, root: Path):
    return subprocess.Popen(
        [sys.executable, WORKER, str(inputs_path), trace_path],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=root, text=True,
    )


def _finish(proc, command: str, deadline: float) -> str:
    """Send the last command to a ready worker and return its final line."""
    try:
        out, _ = proc.communicate(command + "\n", timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def run_worker(inputs_path: Path, seconds: float, trace_path: str | None, root: Path, deadline: float,
               repeats: int):
    """Set up `repeats` fresh workers, one after another, each timed to its ready line.

    Each worker then runs its share of the timed phase, so that the timed
    cycles are spread over the whole run rather than one stretch of it. The
    result joins the workers' cycles; a traced run uses a single worker.
    Set-up times are host-speed normalised: the wall time less the worker's
    probe time, over the speed factor its probes saw (see hostspeed.py).
    The raw wall times are kept in `raw_setups_s`.
    """
    env = child_env(root)
    repeats = 1 if trace_path else repeats
    setups, raw_setups, results = [], [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = _worker(inputs_path, trace_path or "-", env, root)
        try:
            ready = json.loads(_read_line(proc, deadline))
            wall = time.perf_counter() - t0
            raw_setups.append(wall)
            setups.append((wall - ready.get("probe_spent_s", 0.0)) / ready.get("speed_factor", 1.0))
            out = _finish(proc, f"go {seconds / repeats}", deadline)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        results.append(json.loads(out.strip().splitlines()[-1]))
    result = results[-1]
    for key in ("latencies_s", "factors", "cycles_s", "elapsed_s", "attempted", "failed"):
        result[key] = sum((r[key] for r in results[1:]), results[0][key])
    result["errors"] = [e for r in results for e in r["errors"]][:5]
    result["peak_rss_mb"] = max(r["peak_rss_mb"] for r in results)
    result["raw_setups_s"] = raw_setups
    result["speed_factors"] = [r.get("speed_factor") for r in results]
    return setups, result


# --- metadata -------------------------------------------------------------------


def _git_sha(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(pkg: str) -> str:
    try:
        return metadata.version(pkg)
    except metadata.PackageNotFoundError:
        return "not installed"


def run_metadata(root: Path, args, work, result, setups) -> dict:
    per_op = typical_per_op(result, len(work["cycle"]))
    p90 = percentile(per_op, 90)
    raw_s = sum(result["latencies_s"])
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(root),
        "src_sha256_16": _src_digest(root),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "sympy": _version("sympy"),
        "ops_per_cycle": len(work["cycle"]),
        "cycles": len(result["cycles_s"]),
        "cycles_s": result["cycles_s"],
        "ops": len(result["latencies_s"]),
        "timed_s": result["elapsed_s"],
        "ops_per_s_overall": len(result["latencies_s"]) / result["elapsed_s"],
        "ops_per_s_raw": len(result["latencies_s"]) / raw_s if raw_s else None,
        "speed_factors": result["speed_factors"],
        "setup_samples": len(setups),
        "setup_s_each": setups,
        "setup_raw_s_each": result["raw_setups_s"],
        "latency_samples": len(per_op),
        "latency_samples_per_op": len(result["latencies_s"]) // len(per_op),
        "latency_samples_beyond_p90": sum(1 for v in per_op if v > p90),
        "fail_ratio": result["failed"] / result["attempted"],
        "errors": result["errors"],
    }


# --- main -------------------------------------------------------------------------


def normalised(result) -> list:
    """Each timed op's latency at the reference host speed (see hostspeed.py)."""
    factors = result["factors"] or [1.0] * len(result["latencies_s"])
    return [lat / f for lat, f in zip(result["latencies_s"], factors)]


def typical_per_op(result, per_cycle: int) -> list:
    """Each op of the cycle: the median of its normalised latencies over the run's cycles."""
    lat = normalised(result)
    return [statistics.median(lat[i::per_cycle]) for i in range(per_cycle)]


def end_to_end(result, setups, per_cycle: int) -> dict:
    """Set-up, rate and percentiles, all at the reference host speed.

    The host's speed switches between a fast and a slow mode, about 1.5x
    apart, in spells of milliseconds to minutes, and a whole run can fall in
    a slow stretch. So every time is normalised by the speed a fixed probe
    saw around it (hostspeed.py); `meta` keeps the raw rates and set-ups.
    `ops_per_s` is the closed-loop rate: timed ops over the sum of their
    normalised latencies. The percentiles are over the cycle's ops, of each
    op's median over the cycles. First-use costs are not lost: the worker's
    set-up ends with a warm-up cycle, inside `setup_s`.
    """
    lat = normalised(result)
    per_op = typical_per_op(result, per_cycle)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (percentile(per_op, 50) * 1e3, "ms"),
        "latency_p90_ms": (percentile(per_op, 90) * 1e3, "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def per_layer(result) -> dict:
    units = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    layers = result["layers"]
    missing = [m["name"] for m in units if m["name"] not in layers]
    if missing:
        raise BenchError(f"traced run did not report {missing}")
    return {m["name"]: (layers[m["name"]], m["unit"]) for m in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd().resolve()
    if not (root / "src" / "linperm" / "__init__.py").is_file():
        print(f"error: no linperm sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    out_dir = BENCH / "_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        work = gen.WORKLOADS[args.workload](args.seed, load_goldens(root))
        inputs_path = out_dir / "inputs.json"
        inputs_path.write_text(json.dumps(work))
        trace_path = str(out_dir / "spans.npz") if args.trace else None
        setups, result = run_worker(inputs_path, args.seconds, trace_path, root, deadline,
                                    SETUP_REPEATS[args.workload])
        metrics = per_layer(result) if args.trace else end_to_end(result, setups, len(work["cycle"]))
    except (BenchError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed, attempted = result["failed"], result["attempted"]
    meta = run_metadata(root, args, work, result, setups)
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:>16.6g} {unit}")
    print("meta " + json.dumps(meta, sort_keys=True))
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    latencies_ms = [v * 1e3 for v in result["latencies_s"]]
    (out_dir / "result.json").write_text(
        json.dumps({"meta": meta, **line, "latencies_ms": latencies_ms, "factors": result["factors"]}, indent=1)
    )
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
