"""Host wall-clock benchmark of the simulator: one workload per call.

Run from the repository root::

    python3 perfbench/run.py --workload lud_pipeline --seed 1 --seconds 45 --trace 0

The workload runs in :data:`PROCESSES` fresh worker processes, one after
another, each measuring a share of ``--seconds`` in a closed loop (one
job in flight at a time).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics, writing the spans to ``.perfbench/spans/``.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable table and a ``context`` object (machine-speed probe, sample
counts, failures).  See ``perfbench/README.md`` for every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
from time import perf_counter

from layers import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
PROCESSES = 3
#: a worker still running this long past its share of the run is killed
WORKER_GRACE_S = 60.0
#: the whole run is cut (its unfinished workers killed) after this long
RUN_LIMIT_S = 170.0
#: ``kernels`` runs by hand only; BENCHMARK.json lists the other two
WORKLOADS = ("figures", "lud_pipeline", "kernels")
#: fallback reasons reported one by one; the rest sum into ``other``
FALLBACK_REASONS = ("small-ndrange", "speculative")
SIM_UNITS = {"priced_ns": "ns", "elapsed_ns": "ns", "launches": "count",
             "bytes_moved": "bytes"}


# -- machine-speed probe ------------------------------------------------------


def _python_loop() -> float:
    start = perf_counter()
    total = 0
    for i in range(400_000):
        total += i * i % 7
    return perf_counter() - start


def _numpy_loop() -> float:
    import numpy as np

    start = perf_counter()
    a = np.arange(100_000, dtype=np.float64)
    for _ in range(100):
        a = np.sqrt(a * a + 1.0)
    return perf_counter() - start


def _handoff_loop(rounds: int = 2000) -> float:
    """Seconds per round trip of two threads handing a token back and
    forth (the actor workloads' channel hand-offs wait on the same)."""
    ping, pong = threading.Event(), threading.Event()

    def echo() -> None:
        for _ in range(rounds):
            ping.wait()
            ping.clear()
            pong.set()

    thread = threading.Thread(target=echo)
    thread.start()
    start = perf_counter()
    for _ in range(rounds):
        ping.set()
        pong.wait()
        pong.clear()
    elapsed = perf_counter() - start
    thread.join()
    return elapsed / rounds


def probe() -> dict:
    """Best-of-three times of a fixed Python loop (ms), numpy loop (ms)
    and thread hand-off round trip (us)."""
    return {
        "python_ms": min(_python_loop() for _ in range(3)) * 1e3,
        "numpy_ms": min(_numpy_loop() for _ in range(3)) * 1e3,
        "handoff_us": min(_handoff_loop() for _ in range(3)) * 1e6,
    }


# -- statistics ---------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, int]:
    """Value at the highest whole percentile with >= 10 samples above it
    (nearest rank), and that percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in range(99, 0, -1):
        rank = math.ceil(pct * n / 100)
        if rank >= 1 and n - rank >= 10:
            return ordered[rank - 1], pct
    return ordered[-1], 100


# -- workers ------------------------------------------------------------------


def run_worker(args, index: int, share: float, deadline: float) -> dict:
    """Start one worker; returns its result plus ``setup_s``."""
    env = dict(os.environ)
    env.pop("REPRO_KCACHE_DIR", None)
    env["PYTHONHASHSEED"] = str((args.seed * PROCESSES + index) % 2**32)
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed * 1000 + index),
        "--seconds", repr(share), "--trace", str(args.trace),
        "--root", ".",
    ]
    if args.trace:
        command += ["--spans", os.path.join(
            ".perfbench", "spans",
            f"{args.workload}-seed{args.seed}-p{index}.json",
        )]
    start = perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            env=env)
    limit = min(share + WORKER_GRACE_S, deadline - start)
    timer = threading.Timer(max(limit, 1.0), proc.kill)
    timer.start()
    setup_s = None
    last = ""
    try:
        for line in proc.stdout:
            if line.strip() == "READY" and setup_s is None:
                setup_s = perf_counter() - start
            elif line.strip():
                last = line
    finally:
        proc.wait()
        timer.cancel()
    if proc.returncode != 0 or setup_s is None:
        return {"error": f"worker {index} exited with {proc.returncode}"}
    try:
        result = json.loads(last)
    except ValueError:
        return {"error": f"worker {index} printed no result"}
    result["setup_s"] = setup_s
    return result


# -- aggregation --------------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _sim_metrics(workers: list[dict]) -> tuple[dict, bool]:
    """The per-pass simulator counts, and whether every pass agrees."""
    sims = [p["sim"] for w in workers for p in [w["warmup"]] + w["passes"]]
    steady = all(s == sims[0] for s in sims)
    return {f"sim.{k}": _metric(v, SIM_UNITS[k])
            for k, v in sims[0].items()}, steady


def end_to_end(workers: list[dict]) -> tuple[dict, dict]:
    """Each metric is the median of the processes' own values, so one
    process that ran while the shared machine was slow does not set it."""
    each: dict[str, list] = {"jobs_per_s": [], "job_s.p50": [],
                             "job_s.tail": [], "job_samples": [],
                             "tail_percentile": []}
    for w in workers:
        times = [t for p in w["passes"] for t in p["jobs"]]
        tail_value, pct = tail(times)
        each["jobs_per_s"].append(
            len(times) / sum(p["seconds"] for p in w["passes"]))
        each["job_s.p50"].append(statistics.median(times))
        each["job_s.tail"].append(tail_value)
        each["job_samples"].append(len(times))
        each["tail_percentile"].append(pct)
    each["setup_s"] = [w["setup_s"] for w in workers]
    each["peak_rss_mb"] = [w["peak_rss_mb"] for w in workers]
    metrics = {
        name: _metric(statistics.median(each[name]), unit)
        for name, unit in (("setup_s", "s"), ("jobs_per_s", "1/s"),
                           ("job_s.p50", "s"), ("job_s.tail", "s"),
                           ("peak_rss_mb", "MB"))
    }
    context = {f"{name}_each": values for name, values in each.items()}
    context["timed_seconds"] = sum(
        p["seconds"] for w in workers for p in w["passes"])
    return metrics, context


def per_layer(workers: list[dict]) -> tuple[dict, dict]:
    traced = [p for w in workers for p in w["passes"] if p["traced"]]
    untraced = [p for w in workers for p in w["passes"] if not p["traced"]]
    n = len(traced)
    layers = {name: {"calls": 0, "self_s": 0.0, "wait_s": 0.0}
              for name in LAYERS}
    calls: dict[str, int] = {}
    counters: dict[str, float] = {}
    hits = misses = 0
    for w in workers:
        trace = w["trace"]
        for name, row in trace["layers"].items():
            if name in layers:
                for key in row:
                    layers[name][key] += row[key]
        for name, count in trace["target_calls"].items():
            calls[name] = calls.get(name, 0) + count
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0) + value
        hits += trace["kcache"]["hits"]
        misses += trace["kcache"]["misses"]
    metrics = {}
    for name, row in layers.items():
        metrics[f"{name}.calls"] = _metric(row["calls"] / n, "count")
        metrics[f"{name}.self_s"] = _metric(row["self_s"] / n, "s")
    metrics["kcache.hit_ratio"] = _metric(
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    metrics["actors.wait_s"] = _metric(
        layers["actors.receive"]["wait_s"] / n, "s")
    dispatches = sum(v for k, v in calls.items()
                     if k.endswith(".dispatch_kernel_ns"))
    multi = sum(v for k, v in calls.items()
                if k.endswith(".multi_device_kernel_ns"))
    fallbacks = counters.get("dispatch.fallback", 0)
    metrics["opencl.dispatch.vec_share"] = _metric(
        (dispatches - fallbacks) / (dispatches + multi)
        if dispatches + multi else 0.0, "ratio")
    listed = 0.0
    for reason in FALLBACK_REASONS:
        value = counters.get(f"dispatch.fallback.{reason}", 0)
        listed += value
        metrics[f"opencl.dispatch.fallback.{reason}"] = _metric(
            value / n, "count")
    metrics["opencl.dispatch.fallback.other"] = _metric(
        (fallbacks - listed) / n, "count")
    traced_p50 = statistics.median(t for p in traced for t in p["jobs"])
    untraced_p50 = statistics.median(t for p in untraced for t in p["jobs"])
    metrics["trace.overhead_frac"] = _metric(
        traced_p50 / untraced_p50 - 1.0, "ratio")
    absent = sorted({a for w in workers for a in w["trace"]["absent"]})
    context = {
        "traced_passes": n,
        "untraced_passes": len(untraced),
        "absent_targets": absent,
        "absent_layers": sorted({
            a for w in workers for a in w["trace"]["absent_layers"]}),
        "fallback_counters": counters,
    }
    return metrics, context


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2

    deadline = perf_counter() + RUN_LIMIT_S
    probe_before = probe()
    share = args.seconds / PROCESSES
    workers = [run_worker(args, i, share, deadline) for i in range(PROCESSES)]
    probe_after = probe()

    errors = [w["error"] for w in workers if "error" in w]
    good = [w for w in workers if "error" not in w]
    attempted = sum(w["attempted"] for w in good) + len(errors)
    failed = sum(w["failed"] for w in good) + len(errors)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "processes": PROCESSES,
        "probe": {"before": probe_before, "after": probe_after},
        "failed_frac": failed / max(attempted, 1),
        "elapsed_drift_jobs": sum(
            p["elapsed_drift"] for w in good for p in [w["warmup"]] + w["passes"]),
        "failures": [f for w in good for f in w["failures"]][:10] + errors,
    }
    metrics: dict = {}
    steady = True
    if good:
        if args.trace:
            metrics, extra = per_layer(good)
            sim, steady = _sim_metrics(good)
            metrics.update(sim)
        else:
            metrics, extra = end_to_end(good)
            steady = _sim_metrics(good)[1]
        context.update(extra)
    if not steady:
        context["failures"].append("simulator counts differ between passes")
    correct = not errors and failed == 0 and steady

    print(f"perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace} processes={PROCESSES}")
    notes = {}
    if "job_samples_each" in context:
        samples = "/".join(map(str, context["job_samples_each"]))
        notes["job_s.p50"] = f"(n={samples})"
        notes["job_s.tail"] = (
            f"(p{'/'.join(map(str, context['tail_percentile_each']))}, "
            f"n={samples})")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']} "
              f"{notes.get(name, '')}".rstrip())
    print(f"  {'failed_frac':<40} {context['failed_frac']:>14.6g} frac "
          f"({failed}/{attempted})")
    print(f"  {'elapsed drift (Ensemble VM jobs)':<40} "
          f"{context['elapsed_drift_jobs']:>14d} jobs")
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
