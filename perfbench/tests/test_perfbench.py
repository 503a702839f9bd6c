"""Self-checks of the benchmark: layer coverage, exact simulator counts,
configuration isolation, absent wrap targets and the result format.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import layers
import run as bench_run
import workloads
from conftest import BENCH, ROOT
from worker import WorkerRun

#: layer -> the workloads the layer table says exercise it
EXERCISED_ON = {
    "ensemble": ("figures",),
    "kernelc": ("figures",),
    "kcache": ("figures",),
    "openacc.compile": ("figures",),
    "openacc.run": ("figures",),
    "runtime.vm": ("figures",),
    "actors.send": ("lud_pipeline",),
    "actors.receive": ("lud_pipeline",),
    "opencl.queue": ("lud_pipeline",),
    "opencl.dispatch": ("kernels", "lud_pipeline"),
    "opencl.memory": ("kernels", "lud_pipeline"),
    "opencl.costmodel": ("lud_pipeline",),
}


def test_layer_table_is_covered():
    assert set(EXERCISED_ON) == set(layers.LAYERS)
    # every layer is measured on a workload that BENCHMARK.json lists
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = {w["name"] for w in json.load(fh)["workloads"]}
    assert all(listed & set(where) for where in EXERCISED_ON.values())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_passes_cover_layers_and_keep_sim_counts(workload):
    run = WorkerRun(workload, seed=7, root=ROOT, trace=True)
    try:
        untraced = run.run_pass(traced=False)
        traced = run.run_pass(traced=True)
        traced_again = run.run_pass(traced=True)
    finally:
        run.close()
    result = run.result()
    assert result["failed"] == 0, result["failures"]
    assert result["trace"]["absent"] == []
    # exact simulator counts: warm-up == untraced == traced, twice
    assert run.warmup["sim"] == untraced["sim"]
    assert traced["sim"] == untraced["sim"]
    assert traced_again["sim"] == traced["sim"]
    totals = result["trace"]["layers"]
    for layer, where in EXERCISED_ON.items():
        if workload in where:
            assert totals[layer]["calls"] > 0, layer
    # the layers are restored after every traced pass
    for target in run.tracer.targets:
        for binding in target.bindings:
            assert vars(binding.owner)[binding.name] is binding.original


def test_every_binding_of_a_function_is_wrapped():
    from repro.openacc import runtime as acc_runtime
    from repro.opencl import dispatch, queue

    original = dispatch.dispatch_kernel_ns
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        for module in (dispatch, queue, acc_runtime):
            assert module.dispatch_kernel_ns is not original
            assert module.dispatch_kernel_ns.__wrapped__ is original
    finally:
        tracer.uninstall()
    for module in (dispatch, queue, acc_runtime):
        assert module.dispatch_kernel_ns is original


def test_absent_targets_are_reported_not_fatal():
    table = {
        "gone": [("repro.opencl.dispatch", "no_such_function")],
        "gone.module": [("repro.no_such_module", "anything")],
        "kcache": layers.LAYERS["kcache"]
        + [("repro.kcache", "NoSuchClass.method")],
    }
    tracer = layers.LayerTracer(table)
    assert tracer.absent_layers == ["gone", "gone.module"]
    assert tracer.absent == [
        "gone:repro.opencl.dispatch.no_such_function",
        "gone.module:repro.no_such_module.anything",
        "kcache:repro.kcache.NoSuchClass.method",
    ]
    tracer.install()
    tracer.uninstall()
    assert tracer.layer_totals()["gone"]["calls"] == 0


def _runner(reference=None) -> workloads.JobRunner:
    return workloads.JobRunner(
        "lud_pipeline",
        workloads.load_reference() if reference is None else reference,
    )


def _lud_job(runner: workloads.JobRunner, n: int = 120):
    from repro.apps import lud

    return runner.run(
        f"lud n={n}",
        lambda: lud.run_actors(n, "GPU", movable=True),
        lambda outcome: [],
    )


@pytest.mark.parametrize("leak,message", [
    ("fusion", "fusion is True"),
    ("faults", "faults is <"),
    ("out_of_order", "out_of_order is True"),
    ("platforms", "installed platforms are not the expected ones"),
])
def test_leaked_configuration_fails_the_job(leak, message):
    from repro.opencl import dispatch, faults, platform
    from repro.runtime import oclenv

    runner = _runner()
    try:
        if leak == "fusion":
            dispatch.configure(fusion=True)
        elif leak == "faults":
            dispatch.configure(faults=faults.FaultPlan(seed=1))
        elif leak == "out_of_order":
            oclenv.set_out_of_order_queues(True)
        else:
            platform.set_platforms([platform.scaled_platform(0.5)])
        runner.run("lud n=120", lambda: None, lambda outcome: [])
    finally:
        dispatch.configure(fusion=False, faults=None)
        oclenv.set_out_of_order_queues(False)
        platform.reset_platforms()
        runner.sim.close()
    (record,) = runner.records
    assert any(f.startswith(message) for f in record.failures)
    clean = _runner()
    try:
        clean.run("lud n=120", lambda: None, lambda outcome: [])
    finally:
        clean.sim.close()
    assert not any(f.startswith(message) for f in clean.records[0].failures)


def test_reference_drift_fails_the_job():
    reference = copy.deepcopy(workloads.load_reference())
    runner = _runner(reference)
    try:
        _lud_job(runner)
        assert runner.records[-1].failures == []
        reference["lud_pipeline/lud n=120"]["launches"] += 1
        reference["lud_pipeline/lud n=120"]["breakdown"]["kernel"] += 1.0
        _lud_job(runner)
    finally:
        runner.sim.close()
    failures = runner.records[-1].failures
    assert any("launches" in f for f in failures)
    assert any("breakdown" in f for f in failures)


def test_elapsed_drift_fails_only_where_arrival_order_is_exact():
    from repro.apps import lud

    reference = copy.deepcopy(workloads.load_reference())
    reference["lud_pipeline/lud n=120"]["elapsed_ns"] += 48.0
    runner = _runner(reference)
    call = lambda: lud.run_actors(120, "GPU", movable=True)  # noqa: E731
    try:
        runner.run("lud n=120", call, lambda outcome: [])
        runner.run("lud n=120", call, lambda outcome: [],
                   arrival_order=True)
    finally:
        runner.sim.close()
    exact, vm = runner.records
    assert any("elapsed_ns" in f for f in exact.failures)
    assert vm.failures == [] and vm.elapsed_drift


def test_mask_vm_elapsed_blanks_only_ensemble_schedule_rows():
    text = "\n".join([
        "variant            to device",
        "Ensemble GPU           0.038",
        "",
        "end-to-end schedule (elapsed ns, attributed; overlap counted once):",
        "variant              elapsed  transfer",
        "Ensemble GPU           55634      1320",
        "C-OpenCL GPU           50689      3383",
        "",
        "Ensemble GPU    |####",
    ])
    moved = text.replace("55634", "55586")
    assert workloads.mask_vm_elapsed(moved) == workloads.mask_vm_elapsed(text)
    for old, new in (("50689", "50641"), ("0.038", "0.039"), ("####", "###")):
        assert (workloads.mask_vm_elapsed(text.replace(old, new))
                != workloads.mask_vm_elapsed(text))


def test_tail_percentile():
    assert bench_run.tail([float(i) for i in range(100)]) == (89.0, 90)
    assert bench_run.tail([float(i) for i in range(30)]) == (19.0, 66)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_result_format_on_a_short_run(trace, section):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         "lud_pipeline", "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(result["metrics"]) == {m["name"] for m in spec[section]}
    for metric in spec[section]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if section == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figures",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
