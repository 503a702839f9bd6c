"""Regenerate ``reference.json``: every job's priced breakdown and counts.

Run from the repository root::

    python3 perfbench/make_reference.py

Runs one pass of every workload, records each job's priced breakdown,
composed-timeline ``elapsed_ns``, kernel launches and bytes moved, then
runs a second pass against the new reference and refuses to write it
unless that pass has no failed job (oracles and ``evaluation_report.txt``
included).  Simulated results are fixed by the golden figures, so this
should only ever be needed when a workload gains a job.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def _entry(record) -> dict:
    if record.rejected is not None:
        return {"rejected": record.rejected}
    entry = {
        "elapsed_ns": record.elapsed_ns,
        "launches": record.launches,
        "bytes_moved": record.bytes_moved,
    }
    if record.breakdown is not None:
        entry["breakdown"] = record.breakdown
    return entry


def build() -> dict:
    reference: dict = {}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(0, ROOT)
        workload.setup()
        runner = workloads.JobRunner(name, {})
        try:
            workload.run_pass(runner)
            for record in runner.records:
                reference[f"{name}/{record.key}"] = _entry(record)
            check = workloads.JobRunner(name, reference)
            try:
                workload.run_pass(check)
            finally:
                check.sim.close()
        finally:
            runner.sim.close()
        failed = [f"{r.key}: {r.failures}" for r in check.records if r.failures]
        if failed:
            raise SystemExit(f"{name}: reference does not reproduce: {failed}")
    return reference


def main() -> int:
    reference = build()
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(reference)} entries to {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
