"""Tests of the benchmark itself: `PYTHONPATH=src python3 -m pytest -q bench`.

They check that inputs are a pure function of the seed, that the seed
changes neither the op mix nor the cost of an op, that a wrong answer
is counted as a failure rather than dropped, that the tracer's self times
fit inside the traced wall time, and that the generator's own finite-field
verdicts agree with linperm's, and that host-speed normalisation leaves
the probe's own time out of an op's latency.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import hostspeed  # noqa: E402
import inputs as gen  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402

import linperm  # noqa: E402

GOLDENS = run.load_goldens(BENCH.parent)


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_same_seed_gives_identical_inputs(workload):
    make = gen.WORKLOADS[workload]
    first = json.dumps(make(7, GOLDENS), sort_keys=True)
    assert json.dumps(make(7, GOLDENS), sort_keys=True) == first
    assert json.dumps(make(8, GOLDENS), sort_keys=True) != first


def _mix(cycle):
    keys = ("kind", "q", "n", "scale", "check")
    return sorted(
        json.dumps([op.get(k) for k in keys] + [op.get("expect") if type(op.get("expect")) in (bool, int) else None])
        for op in cycle
    )


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_seed_does_not_change_the_mix(workload):
    make = gen.WORKLOADS[workload]
    assert _mix(make(7, GOLDENS)["cycle"]) == _mix(make(8, GOLDENS)["cycle"])


def test_pointwise_costs_do_not_depend_on_the_seed():
    """Units use full support, non-units collide at the constant 1, perturbed involutions fail at once."""
    work = gen.pointwise_oracle(7, GOLDENS)
    for op in work["cycle"]:
        if op["kind"] == "bijection":
            f = gen.parse_lin(op["poly"], op["q"], op["n"])
            weight = sum(1 for c in f if c)
            if op["expect"]:
                assert weight == (1 if op["q"] == 2 else op["n"])
            else:
                assert weight == (2 if op["q"] == 2 else op["n"])
                assert gen._sum(gen.field(op["q"]), f) == 0
        elif op["kind"] == "pointwise-involution" and not op["expect"]:
            F = linperm.parse_linearized(op["poly"], linperm.extension_field(11, 9))
            a = linperm.extension_field(11, 9).from_int(random.Random(op["sample_seed"]).randrange(11**9))
            assert linperm.evaluate(F, linperm.evaluate(F, a)) != a


@pytest.mark.parametrize("q,n", [(2, 3), (4, 3), (5, 2), (3, 5), (8, 11), (11, 9)])
def test_generator_verdicts_match_linperm(q, n):
    ext = linperm.extension_field(q, n)
    rng = random.Random(q * 100 + n)
    for _ in range(40):
        coeffs = [rng.randrange(q) for _ in range(n)]
        F = linperm.parse_linearized(gen.format_lin(coeffs), ext)
        assert gen.parse_lin(linperm.format_linearized(F), q, n) == coeffs
        if any(coeffs):
            assert gen.is_unit(coeffs, q, n) == linperm.is_permutation_gcd(F)


def _small_context():
    return worker.Context([(3, 5, 5), (2, 3, 3)])


def _small_cycle():
    return [
        {"kind": "bijection", "q": 3, "n": 5, "poly": "2*x^[3]+x^[1]+x", "expect": True},
        {"kind": "bijection", "q": 2, "n": 3, "poly": "x^[2]+x^[1]+x", "expect": False},
        {"kind": "shift-orbit", "poly": "2*x^[3]+x^[1]+x", "root": 17, "scale": 2, "expect": 10},
    ]


def test_correct_answers_pass():
    result = worker.timed_cycles(_small_context(), _small_cycle(), 0, once=True)
    assert result["failed"] == 0, result["errors"]
    assert len(result["latencies_s"]) == 3


def test_planted_wrong_answer_is_a_failure(monkeypatch):
    ctx = _small_context()
    real = linperm.is_permutation_gcd
    monkeypatch.setattr(worker.L, "is_permutation_gcd", lambda F: not real(F))
    result = worker.timed_cycles(ctx, _small_cycle(), 0, once=True)
    assert result["failed"] == 2
    assert len(result["latencies_s"]) == 3


def test_raising_op_is_a_failure(monkeypatch):
    ctx = _small_context()

    def broken(F, alpha):
        raise RuntimeError("planted")

    monkeypatch.setattr(worker.L, "cyclic_order", broken)
    result = worker.timed_cycles(ctx, _small_cycle(), 0, once=True)
    assert result["failed"] == 1
    assert "planted" in result["errors"][0]


def test_host_clock_factor_is_mean_probe_time_over_reference():
    clock = hostspeed.HostClock()
    clock.ends.extend([1.0, 2.0, 3.0])
    clock.durations.extend([1e-3, 2e-3, 4e-3])
    ref = hostspeed.PROBE_REF_S
    assert clock.factor(1.9, 2.1) == pytest.approx(2e-3 / ref)
    assert clock.factor(0.5, 2.5) == pytest.approx(1.5e-3 / ref)
    assert clock.mean_factor() == pytest.approx(7e-3 / 3 / ref)
    with pytest.raises(ValueError):
        clock.factor(1.2, 1.8)


def test_probe_time_inside_an_op_is_not_its_latency(monkeypatch):
    clock = hostspeed.HostClock()
    monkeypatch.setitem(worker.OPS, "bijection", lambda ctx, op: [clock.probe() for _ in range(40)] and [op["expect"]])
    cycle = [{"kind": "bijection", "expect": True}]
    result = worker.timed_cycles(None, cycle, 0, once=True, clock=clock)
    assert result["failed"] == 0
    assert len(clock.durations) == 42  # the op's 40, and one on each side of it
    inside = sum(clock.durations[1:41])
    assert result["latencies_s"][0] < 0.25 * inside
    assert result["factors"][0] == pytest.approx(sum(clock.durations) / 42 / hostspeed.PROBE_REF_S)


def test_normalised_rate_divides_by_the_speed_factor():
    result = {"latencies_s": [0.02, 0.04, 0.02, 0.04], "factors": [2.0, 2.0, 1.0, 1.0],
              "peak_rss_mb": 1.0}
    metrics = run.end_to_end(result, [1.0, 3.0, 2.0], per_cycle=2)
    assert metrics["ops_per_s"][0] == pytest.approx(4 / (0.01 + 0.02 + 0.02 + 0.04))
    assert metrics["setup_s"][0] == 2.0
    assert metrics["latency_p50_ms"][0] == pytest.approx(1e3 * (0.015 + 0.03) / 2)


def test_cli_check_rejects_wrong_exit_and_wrong_output():
    cmd = {"args": ["oracle"], "check": "verdict", "expect": True}
    good = json.dumps({"outputs": {"bijection": True}, "checks": [{"name": "b", "passed": True}]})
    assert worker.check_cli(cmd, 0, good)
    assert not worker.check_cli(cmd, 1, good)
    wrong = good.replace("true", "false")
    assert not worker.check_cli(cmd, 0, wrong)
    assert not worker.check_cli(cmd, 0, "Traceback (most recent call last):")


def test_tracer_patches_aliases_and_restores_them():
    original = linperm.linearized.is_permutation_gcd
    tr = tracing.Tracer()
    tr.install()
    try:
        wrapped = linperm.linearized.is_permutation_gcd
        assert wrapped is not original
        assert linperm.is_permutation_gcd is wrapped
        assert linperm.cli.is_permutation_gcd is wrapped
    finally:
        tr.uninstall()
    assert linperm.is_permutation_gcd is original
    assert linperm.cli.is_permutation_gcd is original


def test_self_times_sum_within_traced_wall():
    ctx = _small_context()
    tr = tracing.Tracer()
    before = tracing.cache_counts()
    tr.install()
    t0 = time.perf_counter()
    try:
        result = worker.timed_cycles(ctx, _small_cycle(), 0, tracer=tr, once=True)
    finally:
        tr.uninstall()
    wall = time.perf_counter() - t0
    assert result["failed"] == 0
    layers = tr.layer_metrics()
    self_s = [v for k, v in layers.items() if k.endswith(".self_s")]
    assert all(v >= 0 for v in self_s)
    assert sum(self_s) <= wall
    assert tr.self_times().sum() <= wall
    assert layers["oracle.is_bijection_bruteforce.calls"] == 2
    assert layers["fields.FieldElement.__add__.calls"] > 0
    after = tracing.cache_counts()
    assert after["extension_field"][1] == before["extension_field"][1]  # warm: no new builds


def test_benchmark_json_lists_what_a_traced_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    tr = tracing.Tracer()
    reported = set(tr.layer_metrics())
    reported |= {f"cache.{name}.{kind}" for name in tracing.cache_counts() for kind in ("hits", "misses")}
    reported |= {"cli.import_s", "cli.process_s", "cli.stdout_bytes", "trace.overhead_ratio"}
    assert names == reported
    assert {w["name"] for w in spec["workloads"]} <= set(gen.WORKLOADS)
