"""Outside-in layer tracing: wrap each layer's public entry points.

The layer table below names, per layer, the public functions whose calls
are timed.  :class:`LayerTracer` replaces every binding of each target
with a timing wrapper while a traced pass runs and restores the original
objects afterwards, so untraced passes execute the unmodified program.

A module-level function is rebound in every loaded ``repro`` module that
holds it under any name (``dispatch_kernel_ns`` is imported by name into
``opencl/queue.py`` and ``openacc/runtime.py``); a method or property is
replaced on the class that defines it.  A target that no longer exists is
reported as absent instead of failing the run.

Each call records one span ``(id, layer, target, start_ns, end_ns,
parent_id, thread, job, self_ns, wait_ns)`` in memory.  ``self_ns`` is
the span's duration minus the durations of the spans it directly
encloses on the same thread; ``wait_ns`` (receive spans only) is the
part of the span the thread spent off the CPU.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field

#: layer -> [(module, attribute path)].  ``Class.prefix*`` wraps every
#: method of the class whose name starts with ``prefix``.
LAYERS: dict[str, list[tuple[str, str]]] = {
    "ensemble": [("repro.ensemble", "compile_source")],
    "kernelc": [("repro.kernelc", "compile_source")],
    "kcache": [
        ("repro.kcache", "get_or_build"),
        ("repro.kcache", "get_or_build_module"),
    ],
    "openacc.compile": [("repro.openacc.runtime", "AccProgram.__init__")],
    "openacc.run": [("repro.openacc.runtime", "AccProgram.run")],
    "runtime.vm": [("repro.runtime.vm", "EnsembleVM.execute")],
    "actors.send": [("repro.actors.channel", "OutPort.send")],
    "actors.receive": [("repro.actors.channel", "InPort.receive")],
    "opencl.queue": [
        ("repro.opencl.queue", "CommandQueue.enqueue_*"),
        ("repro.opencl.queue", "CommandQueue.finish"),
    ],
    "opencl.dispatch": [
        ("repro.opencl.dispatch", "dispatch_kernel_ns"),
        ("repro.opencl.dispatch", "multi_device_kernel_ns"),
    ],
    "opencl.memory": [
        ("repro.opencl.memory", "Buffer.data"),
        ("repro.opencl.memory", "Buffer.np_view"),
        ("repro.opencl.memory", "Buffer.mark_np_written"),
    ],
    "opencl.costmodel": [
        ("repro.opencl.costmodel", "DeviceSpec.kernel_ns"),
        ("repro.opencl.costmodel", "DeviceSpec.kernel_ns_from_group_warps"),
        ("repro.opencl.costmodel", "DeviceSpec.transfer_ns"),
        ("repro.opencl.costmodel", "group_warp_costs"),
    ],
}

#: Layers whose spans also record off-CPU (blocked) time.
WAIT_LAYERS = frozenset({"actors.receive"})


@dataclass
class _Binding:
    owner: object
    name: str
    original: object


@dataclass
class Target:
    """One resolved wrap target (a function, method or property)."""

    layer: str
    name: str
    bindings: list[_Binding] = field(default_factory=list)


def _repro_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "repro" or name.startswith("repro."))
    ]


def _resolve(layer: str, module: str, path: str) -> list[Target]:
    """Every binding of *path* in *module*; ``[]`` when it is gone."""
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return []
    if "." not in path:
        fn = vars(mod).get(path)
        if not callable(fn):
            return []
        target = Target(layer, f"{module}.{path}")
        for other in _repro_modules():
            for attr, value in list(vars(other).items()):
                if value is fn:
                    target.bindings.append(_Binding(other, attr, fn))
        return [target]
    cls_name, attr = path.split(".", 1)
    cls = vars(mod).get(cls_name)
    if not isinstance(cls, type):
        return []
    if attr.endswith("*"):
        names = sorted(n for n in vars(cls) if n.startswith(attr[:-1]))
    else:
        names = [attr] if attr in vars(cls) else []
    return [
        Target(
            layer,
            f"{module}.{cls_name}.{name}",
            [_Binding(cls, name, vars(cls)[name])],
        )
        for name in names
    ]


class LayerTracer:
    """Times calls into the layer table's targets from outside."""

    def __init__(self, layers: dict = LAYERS) -> None:
        self.layer_names = list(layers)
        self.targets: list[Target] = []
        self.absent: list[str] = []
        for layer, specs in layers.items():
            for module, path in specs:
                found = _resolve(layer, module, path)
                if not found:
                    self.absent.append(f"{layer}:{module}.{path}")
                self.targets.extend(found)
        present = {t.layer for t in self.targets}
        self.absent_layers = [l for l in self.layer_names if l not in present]
        #: (id, layer, target, start_ns, end_ns, parent, thread, job,
        #: self_ns, wait_ns)
        self.spans: list[tuple] = []
        self.job = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed = False

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            return
        for index, target in enumerate(self.targets):
            for b in target.bindings:
                setattr(b.owner, b.name, self._wrap_object(b.original, index))
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            return
        for target in self.targets:
            for b in target.bindings:
                setattr(b.owner, b.name, b.original)
        self._installed = False

    def _wrap_object(self, obj, index: int):
        if isinstance(obj, property):
            return property(
                self._wrap(obj.fget, index) if obj.fget else None,
                self._wrap(obj.fset, index) if obj.fset else None,
                obj.fdel,
                obj.__doc__,
            )
        return self._wrap(obj, index)

    def _wrap(self, fn, index: int):
        layer = self.targets[index].layer
        wait = layer in WAIT_LAYERS
        local = self._local
        spans = self.spans
        ids = self._ids
        perf = time.perf_counter_ns
        cpu = time.thread_time_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            frame = [next(ids), 0]
            stack.append(frame)
            c0 = cpu() if wait else 0
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                waited = (t1 - t0) - (cpu() - c0) if wait else 0
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[1] += dur
                spans.append((
                    frame[0], layer, index, t0, t1,
                    parent[0] if parent is not None else 0,
                    threading.get_ident(), tracer.job,
                    dur - frame[1], max(waited, 0),
                ))

        return wrapper

    # -- results -----------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, self seconds and off-CPU wait seconds."""
        out = {name: {"calls": 0, "self_s": 0.0, "wait_s": 0.0}
               for name in self.layer_names}
        for span in self.spans:
            row = out[span[1]]
            row["calls"] += 1
            row["self_s"] += span[8] / 1e9
            row["wait_s"] += span[9] / 1e9
        return out

    def target_calls(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for span in self.spans:
            name = self.targets[span[2]].name
            counts[name] = counts.get(name, 0) + 1
        return counts

    def export(self) -> dict:
        """Spans as plain JSON data (times in seconds from the first span)."""
        origin = min((s[3] for s in self.spans), default=0)
        threads: dict[int, int] = {}
        rows = []
        for s in self.spans:
            tid = threads.setdefault(s[6], len(threads))
            rows.append([
                s[0], self.targets[s[2]].name, s[1],
                (s[3] - origin) / 1e9, (s[4] - origin) / 1e9,
                s[5], tid, s[7], s[8] / 1e9, s[9] / 1e9,
            ])
        return {
            "columns": ["id", "target", "layer", "start_s", "end_s",
                        "parent", "thread", "job", "self_s", "wait_s"],
            "absent": self.absent,
            "spans": rows,
        }
