"""The benchmark's three workloads, their jobs and every job's checks.

A *job* is one runner call that yields one checked result.  A job fails
when it raises or exceeds :data:`JOB_TIMEOUT_S`, when its result differs
from the app's ``run_python`` oracle (or, for text sections, from the
matching section of ``evaluation_report.txt``), when its priced
breakdown or simulator counts differ from ``reference.json``, or when the
runtime configuration was not the default when it started.

Simulated nanoseconds are checked here, never timed: they must not move.
The one exception is ``elapsed_ns`` of jobs that run Ensemble VM actor
threads: the composed timeline places their charges in thread arrival
order (docs/ARCHITECTURE.md section 2), which machine load can change.
A mismatch there is counted as *elapsed drift*, not as a failure.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import math
import os
import random
import threading
import weakref
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

from repro import kcache
from repro.apps import docrank, lud, mandelbrot, matmul, reduction
from repro.errors import AccUnsupportedError
from repro.harness import figures as harness_figures
from repro.harness import regenerate
from repro.harness.report import render_figure
from repro.opencl import context as cl_context
from repro.opencl.platform import get_platforms
from repro.trace import Tracer, tracing

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
REPORT_NAME = "evaluation_report.txt"
JOB_TIMEOUT_S = 60.0
SEPARATOR = "=" * 72


# -- simulator counts ---------------------------------------------------------


class SimCounter:
    """Kernel launches and bytes moved by one job, from context ledgers.

    Contexts are seen at construction; a ledger replaced by
    ``reset_ledger`` is banked first, so charges made before a reset in
    the same job still count.
    """

    def __init__(self) -> None:
        self._live: "weakref.WeakSet" = weakref.WeakSet()
        self._base: dict[int, tuple] = {}
        self._acc = [0, 0]
        self._active = False
        self._lock = threading.Lock()
        counter = self
        cls = cl_context.Context
        init, reset = cls.__init__, cls.reset_ledger

        def __init__(ctx, *args, **kwargs):
            init(ctx, *args, **kwargs)
            with counter._lock:
                counter._live.add(ctx)
                if counter._active:
                    counter._base[id(ctx)] = (ctx, ctx.ledger, 0, 0)

        def reset_ledger(ctx):
            with counter._lock:
                counter._bank(ctx)
            ledger = reset(ctx)
            with counter._lock:
                if counter._active:
                    counter._base[id(ctx)] = (ctx, ctx.ledger, 0, 0)
            return ledger

        self._originals = (cls, init, reset)
        cls.__init__ = __init__
        cls.reset_ledger = reset_ledger

    def close(self) -> None:
        """Restore the unwrapped ``Context`` methods."""
        cls, init, reset = self._originals
        cls.__init__ = init
        cls.reset_ledger = reset

    @staticmethod
    def _counts(ledger) -> tuple[int, int]:
        return (
            ledger.kernel_launches,
            ledger.bytes_to_device + ledger.bytes_from_device,
        )

    def _bank(self, ctx) -> None:
        entry = self._base.pop(id(ctx), None)
        if entry is None or entry[0] is not ctx or not self._active:
            return
        launches, moved = self._counts(ctx.ledger)
        if ctx.ledger is entry[1]:
            launches, moved = launches - entry[2], moved - entry[3]
        self._acc[0] += launches
        self._acc[1] += moved

    def begin(self) -> None:
        with self._lock:
            self._acc = [0, 0]
            self._base = {
                id(ctx): (ctx, ctx.ledger) + self._counts(ctx.ledger)
                for ctx in list(self._live)
            }
            self._active = True

    def end(self) -> tuple[int, int]:
        with self._lock:
            for entry in list(self._base.values()):
                self._bank(entry[0])
            self._active = False
            self._base = {}
            return self._acc[0], self._acc[1]


# -- runtime configuration ----------------------------------------------------


def _config_probes() -> dict[str, Callable[[], object]]:
    """The default-configuration checks this program version supports."""
    probes: dict[str, Callable[[], object]] = {}
    try:
        from repro.opencl import fusion

        probes["fusion"] = fusion.enabled
    except (ImportError, AttributeError):
        pass
    try:
        from repro.opencl import faults

        probes["faults"] = faults.active_plan
    except (ImportError, AttributeError):
        pass
    try:
        from repro.runtime import oclenv

        probes["out_of_order"] = oclenv.out_of_order_queues
    except (ImportError, AttributeError):
        pass
    return probes


def describe_platforms(platforms) -> list:
    return [
        (p.name, [(d.spec, d.available) for d in p.devices])
        for p in platforms
    ]


class ConfigCheck:
    """Asserts the default runtime configuration at every job start:
    fusion off, no fault plan, in-order queues, default platforms."""

    def __init__(self) -> None:
        self.probes = _config_probes()
        self.defaults = {name: probe() for name, probe in self.probes.items()}
        self.default_platforms = describe_platforms(get_platforms())
        if any(value not in (False, None) for value in self.defaults.values()):
            raise RuntimeError(
                f"runtime configuration is not the default at start-up: "
                f"{self.defaults}"
            )

    def problems(self, platforms: Optional[list] = None) -> list[str]:
        out = [
            f"{name} is {value!r}"
            for name, value in ((n, p()) for n, p in self.probes.items())
            if value != self.defaults[name]
        ]
        expected = self.default_platforms if platforms is None else platforms
        if describe_platforms(get_platforms()) != expected:
            out.append("installed platforms are not the expected ones")
        return out


# -- jobs ---------------------------------------------------------------------


@dataclass
class JobRecord:
    key: str
    seconds: float = 0.0
    failures: list[str] = field(default_factory=list)
    priced_ns: float = 0.0
    elapsed_ns: float = 0.0
    launches: int = 0
    bytes_moved: int = 0
    breakdown: Optional[dict] = None
    rejected: Optional[str] = None
    #: elapsed_ns depends on thread arrival order (Ensemble VM jobs)
    arrival_order: bool = False
    elapsed_drift: bool = False


class JobRunner:
    """Runs, times and checks jobs; collects one record per job."""

    def __init__(self, workload: str, reference: dict) -> None:
        self.workload = workload
        self.reference = reference
        self.sim = SimCounter()
        self.config = ConfigCheck()
        self.records: list[JobRecord] = []
        #: set by the traced pass: receives the job number for spans
        self.layer_tracer = None
        #: set by the traced pass: every simulator Tracer used by a job
        self.sim_tracers: Optional[list] = None

    def run(
        self,
        key: str,
        call: Callable[[], object],
        check: Callable[[object], list[str]],
        platforms: Optional[list] = None,
        arrival_order: bool = False,
    ):
        """Run *call* as one job; re-raises whatever *call* raised.

        *arrival_order* marks a job whose ``elapsed_ns`` depends on the
        order in which its VM actor threads charge the composed timeline.
        """
        record = JobRecord(key, arrival_order=arrival_order)
        self.records.append(record)
        record.failures += self.config.problems(platforms)
        if self.layer_tracer is not None:
            self.layer_tracer.job += 1
        cl_context.current_clock().timeline.reset()
        self.sim.begin()
        error: Optional[BaseException] = None
        outcome = None
        start = perf_counter()
        try:
            outcome = call()
        except Exception as exc:  # checked below, then re-raised
            error = exc
        record.seconds = perf_counter() - start
        record.launches, record.bytes_moved = self.sim.end()
        record.elapsed_ns = cl_context.current_clock().timeline.elapsed_ns
        if record.seconds > JOB_TIMEOUT_S:
            record.failures.append(f"timed out ({record.seconds:.1f} s)")
        ref = self.reference.get(f"{self.workload}/{key}")
        if ref is None:
            record.failures.append("no committed reference")
            ref = {}
        if error is not None:
            if isinstance(error, AccUnsupportedError):
                record.rejected = str(error)
            if record.rejected is None or record.rejected != ref.get("rejected"):
                record.failures.append(f"raised {error!r}")
            raise error
        breakdown = getattr(outcome, "breakdown", None)
        if breakdown is not None:
            record.breakdown = breakdown
            record.priced_ns = math.fsum(breakdown.values())
            if breakdown != ref.get("breakdown"):
                record.failures.append(
                    f"priced breakdown {breakdown} != reference "
                    f"{ref.get('breakdown')}"
                )
        for name in ("elapsed_ns", "launches", "bytes_moved"):
            if getattr(record, name) != ref.get(name):
                if name == "elapsed_ns" and arrival_order:
                    record.elapsed_drift = True
                    continue
                record.failures.append(
                    f"sim {name} {getattr(record, name)} != reference "
                    f"{ref.get(name)}"
                )
        record.failures += check(outcome)
        return outcome


def _equals(expected) -> Callable[[object], list[str]]:
    def check(outcome) -> list[str]:
        if outcome.result != expected:
            return [f"result {outcome.result!r} != oracle {expected!r}"]
        return []

    return check


def _traced(runner: JobRunner, call: Callable[[], object]):
    """Run *call* under a simulator Tracer when the pass is traced."""
    if runner.sim_tracers is None:
        return call
    def wrapped():
        tracer = Tracer()
        runner.sim_tracers.append(tracer)
        with tracing(tracer):
            return call()
    return wrapped


# -- workloads ----------------------------------------------------------------


class Workload:
    """One workload: oracle set-up plus seeded passes of jobs."""

    name = ""

    def __init__(self, seed: int, root: str) -> None:
        self.rng = random.Random(seed)
        self.root = root

    def setup(self) -> None:
        """Build the oracle references (before the warm-up pass)."""

    def run_pass(self, runner: JobRunner) -> None:
        raise NotImplementedError


class AppSizesWorkload(Workload):
    """A pass is every (app, size) job of :attr:`jobs` in seeded order."""

    #: key -> (runner call, oracle call)
    jobs: dict[str, tuple[Callable, Callable]] = {}
    #: how often each key appears in one pass
    weights: dict[str, int] = {}

    def setup(self) -> None:
        self.oracles = {key: oracle().result
                        for key, (_, oracle) in self.jobs.items()}
        self.schedule = [
            key for key in self.jobs for _ in range(self.weights.get(key, 1))
        ]

    def run_pass(self, runner: JobRunner) -> None:
        order = list(self.schedule)
        self.rng.shuffle(order)
        for key in order:
            call = self.jobs[key][0]
            runner.run(key, _traced(runner, call),
                       _equals(self.oracles[key]))


def _call(fn, **kwargs) -> Callable[[], object]:
    return lambda: fn(**kwargs)


class LudPipeline(AppSizesWorkload):
    """The Figure-4 actor pipeline at n in {120, 128, 136}, warm kcache."""

    name = "lud_pipeline"
    jobs = {
        f"lud n={n}": (
            _call(lud.run_actors, n=n, device_type="GPU", movable=True),
            _call(lud.run_python, n=n),
        )
        for n in (120, 128, 136)
    }


def _kernel_jobs() -> dict[str, tuple[Callable, Callable]]:
    jobs = {}
    for ndocs in (1920, 2048, 2176):
        kw = dict(ndocs=ndocs, v=64, repeats=16)
        jobs[f"docrank ndocs={ndocs}"] = (
            _call(docrank.run_api, device_type="GPU", **kw),
            _call(docrank.run_python, **kw),
        )
    for side in (88, 96, 104):
        kw = dict(w=side, h=side, max_iter=2000)
        jobs[f"mandelbrot {side}x{side}"] = (
            _call(mandelbrot.run_api, device_type="GPU", **kw),
            _call(mandelbrot.run_python, **kw),
        )
    for n in (88, 96, 104):
        jobs[f"matmul n={n}"] = (
            _call(matmul.run_api, n=n, device_type="GPU"),
            _call(matmul.run_python, n=n),
        )
    for n in (61440, 65536, 69632):
        jobs[f"reduction n={n}"] = (
            _call(reduction.run_api, n=n, device_type="GPU"),
            _call(reduction.run_python, n=n),
        )
    return jobs


class Kernels(AppSizesWorkload):
    """C-OpenCL ``run_api`` variants at large NDRanges, warm kcache.

    docrank runs twice per size so that the median job falls inside one
    cluster of like jobs (mandelbrot at its stated size) instead of on
    the gap between two clusters, where the median would be unstable.
    """

    name = "kernels"
    jobs = _kernel_jobs()
    weights = {f"docrank ndocs={n}": 2 for n in (1920, 2048, 2176)}


FIGURE_IDS = ("3a", "3b", "3c", "3d", "3e")
TEXT_SECTIONS = {
    "table1": regenerate.regenerate_table1,
    "figure4": regenerate.regenerate_figure4,
    "movability": regenerate.regenerate_movability_ablation,
    "overlap": regenerate.regenerate_overlap_ablation,
}
SECTION_ORDER = ("table1",) + FIGURE_IDS + ("figure4", "movability", "overlap")
#: text sections that run the Ensemble VM (``lud.run_ensemble``)
VM_TEXT_SECTIONS = frozenset({"movability"})
E2E_HEADER = "end-to-end schedule"


def mask_vm_elapsed(text: str) -> str:
    """*text* with the Ensemble rows of each end-to-end schedule block
    blanked: those rows are the arrival-order dependent ``elapsed_ns``."""
    lines = []
    in_block = False
    for line in text.split("\n"):
        if line.startswith(E2E_HEADER):
            in_block = True
        elif not line.strip():
            in_block = False
        elif in_block and line.startswith("Ensemble "):
            line = line[:16] + " (arrival-order dependent)"
        lines.append(line)
    return "\n".join(lines)


class Figures(Workload):
    """One pass is the full evaluation (``repro.harness.regenerate``)
    with an empty kcache; every figure variant is its own job."""

    name = "figures"

    def setup(self) -> None:
        with open(os.path.join(self.root, REPORT_NAME)) as fh:
            self.report = fh.read()
        chunks = self.report.split(SEPARATOR + "\n")
        # chunks: "", the Table 1 title, then one "<section>\n\n" each
        if len(chunks) != len(SECTION_ORDER) + 2:
            raise RuntimeError(f"{REPORT_NAME} has an unexpected layout")
        self.expected = dict(zip(SECTION_ORDER, chunks[2:]))
        self.specs = {f: harness_figures.figure_spec(f) for f in FIGURE_IDS}
        self.oracles = {}
        for figure, spec in self.specs.items():
            app = importlib.import_module(spec.c_opencl.__module__)
            self.oracles[figure] = app.run_python(**spec.params).result

    def _figure(self, runner: JobRunner, figure: str) -> str:
        spec = self.specs[figure]
        bench = describe_platforms([harness_figures.bench_platform(
            spec.compute_scale, spec.size_ratio, spec.fixed_ratio
        )])
        variants = {"ensemble": "Ensemble", "c_opencl": "C-OpenCL",
                    "openacc": "C-OpenACC"}

        def wrap(attr: str):
            fn = getattr(spec, attr)
            if fn is None:
                return None

            def variant(device_type: str, **params):
                return runner.run(
                    f"{figure}/{variants[attr]} {device_type}",
                    lambda: fn(device_type=device_type, **params),
                    _equals(self.oracles[figure]),
                    platforms=bench,
                    arrival_order=attr == "ensemble",
                )
            return variant

        wrapped = dataclasses.replace(
            spec, **{attr: wrap(attr) for attr in variants}
        )
        sink = {} if runner.sim_tracers is not None else None
        result = harness_figures.build_figure(wrapped, tracer_sink=sink)
        if sink:
            runner.sim_tracers.extend(sink.values())
        return render_figure(result)

    def _text(self, runner: JobRunner, name: str) -> str:
        expected = self.expected[name]

        def check(text) -> list[str]:
            if text + "\n\n" != expected:
                return [f"{name} text differs from {REPORT_NAME}"]
            return []

        return runner.run(name, _traced(runner, TEXT_SECTIONS[name]), check,
                          arrival_order=name in VM_TEXT_SECTIONS)

    def run_pass(self, runner: JobRunner) -> None:
        kcache.clear()
        order = list(SECTION_ORDER)
        self.rng.shuffle(order)
        for name in order:
            first = len(runner.records)
            try:
                if name in TEXT_SECTIONS:
                    text = self._text(runner, name)
                else:
                    text = self._figure(runner, name)
            except Exception as exc:  # noqa: BLE001 - recorded as a failure
                text = ""
                mine = runner.records[first:]
                if mine and not mine[-1].failures:
                    mine[-1].failures.append(f"section raised {exc!r}")
            # The expected chunks are the report split at its separators,
            # so every section matching means the pass text equals the
            # report byte for byte, apart from the Ensemble elapsed rows
            # (which the Ensemble jobs' elapsed_ns check counts as drift).
            expected = self.expected[name]
            if mask_vm_elapsed(text + "\n\n") != mask_vm_elapsed(expected):
                for record in runner.records[first:]:
                    if not record.failures:
                        record.failures.append(
                            f"section {name} differs from {REPORT_NAME}"
                        )


WORKLOADS = {w.name: w for w in (Figures, LudPipeline, Kernels)}


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)
