"""Tests of the benchmark itself: `python3 -m pytest bench`."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import layers
import run
import workloads
from spans import NO_PARENT, Tracer, WrapSpec, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


def _run(*args):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["tune", "sweep", "cli"])
def test_tiny_smoke_run(workload):
    result = _run("--workload", workload, "--seed", "7", "--seconds", "0.1", "--tiny", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for m in BENCHMARK["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_tiny_traced_run_reports_every_layer_metric():
    result = _run("--workload", "tune", "--seed", "7", "--seconds", "0.1", "--tiny", "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in BENCHMARK["per_layer"]
    ]
    assert result["metrics"]["optimizer.cost.calls_per_solution"]["value"] > 0
    assert result["metrics"]["trace.coverage"]["value"] > 0.9


def test_benchmark_json_matches_code():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == list(layers.PER_LAYER)
    assert {(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]} == set(run.END_TO_END)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_text(open(os.path.join(HERE, name)).read())
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode != 0 and done.stdout == ""


def test_self_time_on_hand_built_tree():
    # 0: [0, 100] root
    # 1: [10, 40] child of 0, with 3: [20, 30] inside it
    # 2: [35, 60] child of 0, overlapping 1 (union of children is [10, 60])
    # 4: [90, 120] child of 0 running past its parent: clipped to [90, 100]
    parent = [NO_PARENT, 0, 0, 1, 0]
    start = [0, 10, 35, 20, 90]
    end = [100, 40, 60, 30, 120]
    assert self_times(parent, start, end).tolist() == [100 - 50 - 10, 30 - 10, 25, 10, 30]


def test_self_time_without_children_is_duration():
    assert self_times([NO_PARENT, NO_PARENT], [0, 5], [3, 9]).tolist() == [3, 4]


def test_wrapper_on_missing_attribute_records_nothing():
    tracer = Tracer()
    assert not tracer.wrap(WrapSpec("json", "no_such_function", "json.no_such_function"))
    assert not tracer.wrap(WrapSpec("module_that_is_not_loaded", "f", "x.f"))
    assert tracer.missing == ["json.no_such_function", "module_that_is_not_loaded.f"]
    tracer.install([WrapSpec("resonet.response", "gone_in_a_later_version", "response.gone")])
    sid = tracer.begin_op()
    tracer.finish(sid)
    values, summary = layers.per_layer_metrics(tracer, 0.0)
    assert summary["json.no_such_function"]["calls"] == 0
    assert values["optimizer.cost.calls_per_solution"] == 0
    assert values["response.sweep.ns_per_point.n16"] == 0
    assert set(values) == {name for name, _, _ in layers.PER_LAYER}


def test_wrapper_records_spans_errors_and_restores():
    import math as target

    original = target.sqrt
    tracer = Tracer()
    assert tracer.wrap(WrapSpec("math", "sqrt", "math.sqrt", lambda a, k, r: r))
    assert target.sqrt(4.0) == 2.0
    with pytest.raises(ValueError):
        target.sqrt(-1.0)
    tracer.uninstall()
    assert target.sqrt is original
    cols = tracer.columns()
    assert cols["error"].tolist() == [0, 1]
    assert cols["value"][0] == 2.0 and np.isnan(cols["value"][1])


def test_forced_correctness_failure_counts_in_ops_failed():
    wl = workloads.Tune()
    wl.setup(3, 0.1, tiny=True)
    real = wl.rn.optimizer.optimize

    def no_progress(problem, **kwargs):  # returns the perturbed start unchanged
        result = real(problem, max_iter=1, **kwargs)
        return type(result)(final=problem.initial, final_cost=result.final_cost, iterations=1, converged=True)

    wl.rn.optimizer.optimize = no_progress
    try:
        runs = run.measure(wl, wl.kernel())
    finally:
        wl.rn.optimizer.optimize = real
    assert runs["attempted"] == len(wl.passes[0]) and runs["failed"] == runs["attempted"]
    assert all("GateFailure" in line for line in runs["failures"])


def test_sweep_gate_catches_a_wrong_response():
    wl = workloads.Sweep()
    wl.setup(3, 0.1, tiny=True)
    op = wl.passes[0][0]
    resp, s12 = wl.run(op)
    wl.check(op, (resp, s12))
    with pytest.raises(workloads.GateFailure):
        wl.check(op, (resp, s12 * 0.999))


def test_inputs_depend_only_on_the_seed():
    a, b, c = workloads.Tune(), workloads.Tune(), workloads.Tune()
    a.setup(5, 0.1, tiny=True)
    b.setup(5, 0.1, tiny=True)
    c.setup(6, 0.1, tiny=True)
    assert a.input_hash == b.input_hash != c.input_hash


def test_work_depends_on_run_length_not_speed():
    assert [workloads.Sweep().passes_for(s, False) for s in (0.1, 1.7, 20, 60)] == [1, 1, 12, 36]
    assert workloads.Sweep().passes_for(20, True) == 1
    a, b = workloads.Sweep(), workloads.Sweep()
    a.setup(5, 20)
    b.setup(5, 3.4)
    assert (len(a.passes), a.n_passes, len(b.passes)) == (12, 12, 2)
    assert a.input_hash != b.input_hash


def test_k_tolerance_covers_the_hong_lancaster_bias():
    # Ideal peaks satisfy (f2 - f1) / sqrt(f1 f2) = k; Hong-Lancaster reads
    # them as tanh(2 asinh(k / 2)) ~ k - 3k^3/8.
    for k in np.linspace(*workloads.K_RANGE, 8):
        bias = k - np.tanh(2.0 * np.arcsinh(k / 2.0))
        assert 0 < bias < workloads.k_tolerance(k)
        assert bias > 0.3 * k**3  # the bias is visible, not hidden by a tiny k
