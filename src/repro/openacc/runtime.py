"""Execution engine for pragma-compiled programs.

Host statements run on the kir reference interpreter (sequential C
semantics, priced at a fixed host throughput).  When the interpreter
compiles an annotated loop, it compiles a dispatch in its place: each
time execution reaches the loop, the generated kernel runs on the target
device instead, moving data per the directive's data clauses.

Data movement semantics match OpenACC:

* outside any ``data`` region, every ``parallel loop`` copies its inputs
  to the device on entry and its outputs back on exit — *every time the
  region executes*;
* inside a ``data`` region, the listed arrays are device-resident for
  the region's dynamic extent and the enclosed loops reuse the buffers;
  a nested ``data`` region finds them present and leaves them to the
  region that created them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..errors import AccError
from .. import kcache, kir
from ..kir.interp import Code, Interpreter
from ..opencl import Buffer, CommandQueue, Context, CostLedger, Device
from ..opencl.dispatch import dispatch_kernel_ns
from ..opencl.platform import find_device
from .compiler import AccModule, DataRegion, LoopRegion, compile_acc

#: Sequential host code throughput (ops per simulated nanosecond) — a
#: single superscalar core running -O2 C (IPC ~3 at 3.3 GHz; one kir op
#: often maps to less than one machine instruction after optimisation).
#: Shared with the single-threaded baselines via the harness.
HOST_OPS_PER_NS = 10.0

_REDUCE_COMBINE = {
    "min": min,
    "max": max,
    "+": lambda a, b: a + b,
}


@dataclass
class AccResult:
    """Outcome of one :meth:`AccProgram.run`.

    ``value`` is the host function's return value, ``ledger`` the priced
    costs (host code charged as ``host_ops / HOST_OPS_PER_NS``),
    ``host_ops`` the interpreter's op count for the sequential host code,
    and ``report`` the pragma compiler's per-region decisions.
    """

    value: Any
    ledger: CostLedger
    host_ops: int
    report: list[str]

    @property
    def total_ns(self) -> float:
        return self.ledger.total_ns


class _AccExecutor(Interpreter):
    """Interpreter that compiles annotated statements into device work.

    The compiled code reaches the executor through ``self._ref``, a weak
    reference, so no reference cycle outlives a run.
    """

    def __init__(
        self,
        acc: AccModule,
        device: Device,
        context: Context,
        queue: CommandQueue,
    ) -> None:
        super().__init__(acc.module)
        self.acc = acc
        self.device = device
        self.context = context
        self.queue = queue
        # Region kernels compile through the content-addressed cache, so
        # re-running the same pragma program (benchmark repetitions)
        # skips the Python codegen wall-clock cost.
        self.compiled_kernels = kcache.get_or_build_module(acc.kernels) if (
            acc.kernels.functions
        ) else None
        # id(host list) -> Buffer, for arrays inside data regions.
        self.resident: dict[int, Buffer] = {}

    # -- interception ---------------------------------------------------

    def _compile_stmt(self, st: kir.Stmt) -> tuple[int, Code, bool]:
        loop = self.acc.loop_regions.get(id(st))
        if loop is not None and loop.kind != "sequential":
            return 0, self._region_code(loop), False
        cost, code, signals = super()._compile_stmt(st)
        data = self.acc.data_regions.get(id(st))
        if data is None:
            return cost, code, signals
        executor = self._ref

        def data_region(env: dict) -> Any:
            created = executor()._enter_data(data, env)
            try:
                return code(env)
            finally:
                executor()._exit_data(created)

        return cost, data_region, signals

    def _region_code(self, region: LoopRegion) -> Code:
        stmt = region.stmt
        assert isinstance(stmt, kir.For)
        headers = [stmt.start, stmt.stop]
        if region.collapse:
            inner = stmt.body[0]
            assert isinstance(inner, kir.For)
            headers += [inner.start, inner.stop]
        # Each bound charges its own ops when the region evaluates it.
        bounds = tuple(self._charged(*self._expr(e)) for e in headers)
        executor = self._ref

        def parallel_region(env: dict) -> None:
            executor()._run_region(region, env, bounds)

        return parallel_region

    # -- data regions ------------------------------------------------------

    def _array(self, name: str, env: dict) -> list:
        value = env.get(name)
        if not isinstance(value, list):
            raise AccError(f"data clause names non-array {name!r}")
        return value

    def _enter_data(
        self, region: DataRegion, env: dict
    ) -> list[tuple[list, Buffer, bool]]:
        """Make the region's arrays present; return what this call created.

        An array already present (an enclosing region's) is reused, not
        copied: OpenACC "present" semantics.
        """
        created = []
        for name in region.copy + region.copyin + region.copyout:
            host = self._array(name, env)
            if id(host) in self.resident:
                continue
            buf = Buffer(self.context, len(host), _dtype_of(host))
            if name not in region.copyout:
                self.queue.enqueue_write_buffer(buf, host)
            self.resident[id(host)] = buf
            readback = name in region.copy or name in region.copyout
            created.append((host, buf, readback))
        return created

    def _exit_data(self, created: list[tuple[list, Buffer, bool]]) -> None:
        """Undo exactly what the matching :meth:`_enter_data` created."""
        for host, buf, readback in created:
            if readback:
                self.queue.enqueue_read_buffer(buf, host)
        for host, buf, _ in created:
            del self.resident[id(host)]
            if not buf.released:
                buf.release()

    # -- parallel regions ---------------------------------------------------

    def _run_region(
        self, region: LoopRegion, env: dict, bounds: tuple[Code, ...]
    ) -> None:
        start = bounds[0](env)
        stop = bounds[1](env)
        trip = max(0, stop - start)
        if trip == 0:
            return

        # Bind buffers (resident ones move nothing).
        temp_buffers: list[tuple[str, list, Buffer, bool]] = []
        args: list[Any] = []
        for name in region.arrays:
            host = self._array(name, env)
            buf = self.resident.get(id(host))
            if buf is None:
                buf = Buffer(self.context, len(host), _dtype_of(host))
                if name in region.arrays_in or not region.arrays_in:
                    self.queue.enqueue_write_buffer(buf, host)
                readback = name in region.arrays_out
                temp_buffers.append((name, host, buf, readback))
            args.append(buf)
        for name in region.scalars:
            if name not in env:
                raise AccError(f"scalar {name!r} not in scope at region")
            args.append(env[name])

        if region.kind == "reduction":
            self._run_reduction(region, env, args, start, stop, trip)
        else:
            args.append(start)
            args.append(stop)
            gsz = trip
            if region.collapse:
                start1 = bounds[2](env)
                stop1 = bounds[3](env)
                args.extend([start1, stop1])
                gsz = trip * max(0, stop1 - start1)
            lsz = min(region.local_size, self.device.spec.max_work_group_size)
            gsz_padded = _round_up(gsz, lsz)
            assert self.compiled_kernels is not None
            runner = self.compiled_kernels.kernel_runner(region.kernel_name)
            ns = dispatch_kernel_ns(
                runner, self.device.spec, args, [gsz_padded], [lsz]
            )
            start = self.device.schedule_ns(self.context.clock.now_ns, ns)
            self.context.charge(
                "kernel",
                ns,
                name=f"acc:{region.kernel_name}",
                track=f"device/{self.device.name}",
                ts_ns=start,
                args={"global_size": gsz_padded, "local_size": lsz},
            )
            with self.context.ledger._lock:
                self.context.ledger.kernel_launches += 1

        # Per-region copy-out for non-resident arrays.
        for name, host, buf, readback in temp_buffers:
            if readback:
                self.queue.enqueue_read_buffer(buf, host)
            buf.release()

    def _run_reduction(
        self,
        region: LoopRegion,
        env: dict,
        args: list,
        start: int,
        stop: int,
        trip: int,
    ) -> None:
        op, var = region.reduction  # type: ignore[misc]
        if var not in env:
            raise AccError(f"reduction variable {var!r} not in scope")
        initial = env[var]
        if region.pragma.num_gangs:
            gangs = region.pragma.num_gangs
        elif region.pragma.tuned:
            gangs = 2 * self.device.spec.compute_units
        else:
            # Annotating the sequential loop is not enough (paper,
            # Section 7.4): without explicit tuning the compiler
            # serialises the reduction loop on the device.
            gangs = 1
        gangs = max(1, min(gangs, trip))
        assert self.compiled_kernels is not None
        runner = self.compiled_kernels.kernel_runner(region.kernel_name)
        seed = 0 if op == "+" else initial
        partial_host = [seed] * gangs
        # The partial-sum buffer takes the reduction variable's type
        # (the kernel's trailing ``__partial`` parameter), not the seed's.
        partial = Buffer(
            self.context, gangs, runner.fn.params[-1].type.element.kind
        )
        self.queue.enqueue_write_buffer(partial, partial_host)
        args = list(args) + [partial]
        ns = dispatch_kernel_ns(runner, self.device.spec, args, [gangs], [1])
        start = self.device.schedule_ns(self.context.clock.now_ns, ns)
        self.context.charge(
            "kernel",
            ns,
            name=f"acc:{region.kernel_name}",
            track=f"device/{self.device.name}",
            ts_ns=start,
            args={"gangs": gangs},
        )
        with self.context.ledger._lock:
            self.context.ledger.kernel_launches += 1
        self.queue.enqueue_read_buffer(partial, partial_host)
        partial.release()
        combine = _REDUCE_COMBINE[op]
        result = initial
        for value in partial_host:
            result = combine(result, value)
            self.ops += 2
        env[var] = result


def _dtype_of(host: list) -> str:
    for value in host:
        if isinstance(value, bool):
            return "bool"
        if isinstance(value, float):
            return "float"
        if isinstance(value, int):
            return "int"
    return "float"


def _round_up(value: int, multiple: int) -> int:
    if multiple <= 1:
        return value
    return ((value + multiple - 1) // multiple) * multiple


class AccProgram:
    """A pragma-annotated program, compiled and ready to run.

    Raises :class:`~repro.errors.AccUnsupportedError` at construction for
    source the pragma compiler cannot handle (the paper's PGI failure
    mode on document ranking).
    """

    def __init__(
        self,
        source: str,
        device_type: str = "GPU",
        openmp: bool = False,
    ) -> None:
        # OpenMP host compilation (the paper's gcc CPU path) tolerates
        # function calls in parallel regions; the acc GPU path does not.
        self.acc = compile_acc(source, allow_calls=openmp)
        self.device_type = device_type

    @property
    def report(self) -> list[str]:
        return self.acc.report

    def run(
        self, function: str, args: list, device: Optional[Device] = None
    ) -> AccResult:
        device = device or find_device(self.device_type)
        context = Context([device])
        queue = CommandQueue(context, device)
        executor = _AccExecutor(self.acc, device, context, queue)
        value = executor.call(function, args)
        host_ns = executor.ops / HOST_OPS_PER_NS
        context.charge(
            "host", host_ns, name="acc.host", args={"ops": executor.ops}
        )
        return AccResult(
            value=value,
            ledger=context.ledger,
            host_ops=executor.ops,
            report=self.acc.report,
        )
