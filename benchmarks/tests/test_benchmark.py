"""Smoke tests of the benchmark harness: tiny runs of every workload.

    PYTHONPATH=src python -m pytest -q benchmarks/tests
"""

import json
import os
import sys
import warnings
from random import Random

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import one_pass  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

TINY = "0.05"


def _contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--scale", TINY])
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(capsys, workload):
    result = _run(capsys, workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = {m["name"]: m["unit"] for m in _contract()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert result["attempted"] >= 1
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(capsys, workload):
    result = _run(capsys, workload, 1)
    wanted = {m["name"]: m["unit"] for m in _contract()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert result["metrics"]["ed_solver.min_permutation_rank.calls"]["value"] >= 1
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_failing_operations_are_counted_not_raised():
    def operation(item):
        if item == 1:
            raise ValueError("injected")
        if item == 2:
            warnings.warn("injected fallback")
        if item == 3:
            raise workloads.WrongAnswer("injected wrong answer")

    latencies, failures = one_pass.run_ops([0, 1, 2, 3], operation, ["a", "b", "c", "d"])
    assert len(latencies) == 4
    assert [(f["index"], f["type"]) for f in failures] == [
        (1, "ValueError"), (2, "UserWarning"), (3, "WrongAnswer")]


def _fake_pass(failures, slowdown=1.0):
    return {"mode": "plain", "setup_s": 0.1 * slowdown, "wall_s": 20.0 * slowdown / 1000.0,
            "op_ms": [1.0 * slowdown] * 20, "failures": failures, "digest": "d",
            "maxrss_mib": 20.0, "speed_samples": [speed.REFERENCE_S * slowdown] * 3,
            "wrong": sum(f["type"] == "WrongAnswer" for f in failures)}


def test_wrong_answers_make_the_run_incorrect(capsys):
    crash = {"index": 4, "label": "x", "type": "AssertionError", "message": ""}
    wrong = dict(crash, type="WrongAnswer")
    result = run.report("oracle", 1, [_fake_pass([crash])] * 3, trace=False)
    # An input that fails in every pass counts once.
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 20, 1)
    assert result["metrics"]["ops_ok_ratio"]["value"] == pytest.approx(0.95)
    assert not run.report("oracle", 1, [_fake_pass([wrong])] * 3, trace=False)["correct"]
    capsys.readouterr()


def test_times_are_scaled_to_the_reference_speed(capsys):
    passes = [_fake_pass([], slowdown) for slowdown in (1.0, 1.5, 2.0)]
    metrics = run.report("catalog", 1, passes, trace=False)["metrics"]
    assert metrics["wall_s"]["value"] == pytest.approx(0.02)
    assert metrics["op_p50_ms"]["value"] == pytest.approx(1.0)
    assert metrics["setup_s"]["value"] == pytest.approx(0.1)
    capsys.readouterr()


def test_speed_probe_samples_between_operations():
    probe = speed.SpeedProbe(every=0.0)
    latencies, _ = one_pass.run_ops([0, 1, 2], lambda item: None, ["a", "b", "c"], probe=probe)
    assert len(latencies) == 3 and len(probe.samples) == 3
    assert all(s > 0 for s in probe.samples)


def test_timed_out_tracemalloc_pass_reports_null(capsys, monkeypatch):
    real = run.run_pass

    def run_pass(workload, seed, mode, scale, timeout):
        if mode == "alloc":
            raise run.PassTimeout("injected")
        return real(workload, seed, mode, scale, timeout)

    monkeypatch.setattr(run, "run_pass", run_pass)
    result = _run(capsys, "oracle", 1)
    assert result["metrics"]["trace.peak_alloc_mib"]["value"] is None
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_tracer_wraps_every_importing_namespace_and_restores_them():
    from edlattice import ed_solver, group_core, int_lattice

    original = int_lattice.fixed_submodule
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert ed_solver.fixed_submodule is int_lattice.fixed_submodule is not original
        module = workloads.random_modules.random_module(
            Random(0), group_core.make_cyclic(4), 2, max_dim=3)
        ed_solver.min_permutation_rank(module, 2)
    finally:
        tracer.uninstall()
    assert ed_solver.fixed_submodule is int_lattice.fixed_submodule is original
    metrics = tracer.layer_metrics()
    assert metrics["int_lattice.fixed_submodule.calls"] >= 1
    assert metrics["ed_solver.min_permutation_rank.calls"] == 1
    assert all(metrics[k] >= 0 for k in metrics)


def test_removed_function_reports_null(monkeypatch):
    from edlattice import fp_module

    monkeypatch.delattr(fp_module, "orbit_span")
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["fp_module.orbit_span.calls"] is None
    assert metrics["fp_module.orbit_span.self_s"] is None
    assert metrics["fp_module.rref.calls"] == 0


def test_nonabelian_groups():
    d8, q8, h27 = workloads.dihedral8(), workloads.quaternion8(), workloads.heisenberg27()
    assert [g.order for g in (d8, q8, h27)] == [8, 8, 27]
    assert not any(g.is_abelian() for g in (d8, q8, h27))
    involutions = [sum(g.element_order(x) == 2 for x in g.elements()) for g in (d8, q8)]
    assert involutions == [5, 1]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload):
    first = workloads.make(workload, 7, 0.05)
    assert workloads.make(workload, 7, 0.05).digest == first.digest
    if workload != "catalog":
        assert workloads.make(workload, 8, 0.05).digest != first.digest
