"""One benchmark process: set up, warm up, then run timed passes.

Started by ``run.py`` as a fresh interpreter per process::

    python3 perfbench/worker.py --workload lud_pipeline --seed 1 \\
        --seconds 8 --trace 0 --root .

It prints ``READY`` when the first timed job is about to start, then one
JSON line with every pass's job times, checks and simulator counts.  With
``--trace 1`` every other pass runs with the layer wrappers installed and
a simulator :class:`repro.trace.Tracer` active, and ``--spans FILE``
receives the recorded spans.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
from time import perf_counter


def pass_summary(records, seconds: float, traced: bool) -> dict:
    return {
        "traced": traced,
        "seconds": seconds,
        "jobs": [r.seconds for r in records],
        "failed": sum(1 for r in records if r.failures),
        "elapsed_drift": sum(1 for r in records if r.elapsed_drift),
        "sim": {
            "priced_ns": math.fsum(r.priced_ns for r in records),
            "elapsed_ns": math.fsum(
                r.elapsed_ns for r in records if not r.arrival_order),
            "launches": sum(r.launches for r in records),
            "bytes_moved": sum(r.bytes_moved for r in records),
        },
    }


class WorkerRun:
    """One workload in this process: set-up and warm-up at construction,
    then :meth:`run_pass` per pass.  Call :meth:`close` when done."""

    def __init__(self, workload: str, seed: int, root: str,
                 trace: bool) -> None:
        sys.path.insert(0, os.path.join(root, "src"))
        import workloads
        from layers import LayerTracer

        self.workload = workloads.WORKLOADS[workload](seed, root)
        self.workload.setup()
        self.runner = workloads.JobRunner(workload, workloads.load_reference())
        self.workload.run_pass(self.runner)
        self.warmup = pass_summary(self.runner.records, 0.0, False)
        self.tracer = LayerTracer() if trace else None
        self.passes: list[dict] = []
        self.counters: dict[str, float] = {}
        self.kcache = {"hits": 0, "misses": 0}

    def run_pass(self, traced: bool) -> dict:
        from repro import kcache

        runner, tracer = self.runner, self.tracer
        first = len(runner.records)
        if traced:
            before = kcache.stats()
            runner.layer_tracer, runner.sim_tracers = tracer, []
            tracer.install()
        start = perf_counter()
        try:
            self.workload.run_pass(runner)
        finally:
            seconds = perf_counter() - start
            if traced:
                tracer.uninstall()
                after = kcache.stats()
                self.kcache["hits"] += after.hits - before.hits
                self.kcache["misses"] += after.misses - before.misses
                for sim_tracer in runner.sim_tracers:
                    for name, value in sim_tracer.counters().items():
                        if name.startswith("dispatch.fallback"):
                            self.counters[name] = (
                                self.counters.get(name, 0) + value)
                runner.layer_tracer = runner.sim_tracers = None
        summary = pass_summary(runner.records[first:], seconds, traced)
        self.passes.append(summary)
        return summary

    def close(self) -> None:
        self.runner.sim.close()

    def result(self) -> dict:
        records = self.runner.records
        out = {
            "warmup": self.warmup,
            "passes": self.passes,
            "attempted": len(records),
            "failed": sum(1 for r in records if r.failures),
            "failures": [
                f"{r.key}: {'; '.join(r.failures)}"
                for r in records if r.failures
            ][:10],
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if self.tracer is not None:
            out["trace"] = {
                "layers": self.tracer.layer_totals(),
                "target_calls": self.tracer.target_calls(),
                "absent": self.tracer.absent,
                "absent_layers": self.tracer.absent_layers,
                "counters": self.counters,
                "kcache": self.kcache,
            }
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", default=".")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    run = WorkerRun(args.workload, args.seed, os.path.abspath(args.root),
                      bool(args.trace))
    print("READY", flush=True)
    start = perf_counter()
    try:
        while True:
            run.run_pass(traced=bool(args.trace)
                             and len(run.passes) % 2 == 1)
            if perf_counter() - start >= args.seconds and (
                not args.trace or len(run.passes) >= 2
            ):
                break
    finally:
        run.close()
    result = run.result()
    if run.tracer is not None and args.spans:
        os.makedirs(os.path.dirname(os.path.abspath(args.spans)),
                    exist_ok=True)
        with open(args.spans, "w") as fh:
            json.dump(run.tracer.export(), fh)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
