"""Schedule-aware end-to-end accounting: attribution and fence semantics.

Three groups of guarantees around the composed
:class:`~repro.opencl.costmodel.ScheduleTimeline`:

* **attribution properties** (hypothesis): however serial charges,
  placed commands and host waits interleave, the exact attribution
  buckets sum to precisely ``elapsed_ns`` — no nanosecond is counted
  twice or dropped — and command streams issued through real queues
  leave no idle gap;
* **fence regressions**: ``finish()``, barriers and markers fence the
  *composed cross-queue* timeline exactly like they fence a single
  queue — a finish on one queue gates later commands on every queue
  (through the host cursor), a barrier fences only its own queue, a
  marker fences nothing;
* **reset regressions**: ``reset_ledger()`` restarts the composed
  origin for the next measured run without corrupting queue-local
  state (``overlap_ns``) and without stale cross-epoch placements
  inflating the new run.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.opencl import (
    CommandQueue,
    Context,
    ScheduleTimeline,
    TIMELINE_SEGMENTS,
    find_device,
    reset_platforms,
)
from repro.opencl.context import fresh_clock

pytestmark = pytest.mark.sched


def _setup(out_of_order, clock=None):
    device = find_device("GPU")
    ctx = Context([device], clock=clock)
    queue = CommandQueue(ctx, device, out_of_order=out_of_order)
    return ctx, queue


def _kernel(queue, ns, reads=(), writes=(), wait_for=None):
    return queue.enqueue_priced_kernel(
        "k", ns, reads=reads, writes=writes, wait_for=wait_for
    )


def _fraction_sweep(timeline):
    """Reference attribution: the sweep keyed by Fraction boundaries."""
    segs = [
        (Fraction(s), Fraction(e), kind)
        for s, e, kind in timeline.segments
        if e > s
    ]
    elapsed = Fraction(timeline.elapsed_ns)
    totals = {segment: Fraction(0) for segment in TIMELINE_SEGMENTS}
    if elapsed <= 0:
        return totals
    deltas = {}
    for start, end, kind in segs:
        deltas.setdefault(start, {}).setdefault(kind, 0)
        deltas[start][kind] += 1
        deltas.setdefault(end, {}).setdefault(kind, 0)
        deltas[end][kind] -= 1
    deltas.setdefault(Fraction(0), {})
    deltas.setdefault(elapsed, {})
    bounds = sorted(deltas)
    active = {}
    for lo, hi in zip(bounds, bounds[1:]):
        for kind, delta in deltas[lo].items():
            active[kind] = active.get(kind, 0) + delta
        if lo >= elapsed:
            break
        kinds = [k for k, depth in active.items() if depth > 0]
        if not kinds:
            bucket = "idle"
        elif len(kinds) == 1:
            bucket = kinds[0]
        else:
            bucket = "overlap"
        totals[bucket] += min(hi, elapsed) - lo
    return totals


class TestAttributionProperties:
    """sum(attribution) == elapsed, exactly, for arbitrary timelines."""

    @settings(deadline=None)
    @given(st.lists(
        st.one_of(
            # a serial charge of one of the four kinds
            st.tuples(st.just("serial"),
                      st.sampled_from(("transfer", "compute", "api")),
                      st.integers(min_value=0, max_value=500)),
            # an arbitrarily placed command (overlaps and gaps allowed)
            st.tuples(st.just("place"),
                      st.sampled_from(("transfer", "compute", "api")),
                      st.tuples(st.integers(min_value=0, max_value=2000),
                                st.integers(min_value=0, max_value=500))),
            # a blocking host wait to an arbitrary instant
            st.tuples(st.just("wait"), st.just("api"),
                      st.integers(min_value=0, max_value=2500)),
        ),
        max_size=25,
    ))
    def test_attribution_sums_to_elapsed_exactly(self, script):
        timeline = ScheduleTimeline()
        for op, kind, arg in script:
            if op == "serial":
                timeline.serial_advance(kind, float(arg))
            elif op == "place":
                start, dur = arg
                timeline.place(kind, float(start), float(start + dur))
            else:
                timeline.host_wait(float(arg))
        exact = timeline.attribution_exact()
        assert set(exact) == set(TIMELINE_SEGMENTS)
        assert sum(exact.values(), Fraction(0)) == Fraction(
            timeline.elapsed_ns
        )
        assert all(value >= 0 for value in exact.values())
        # The float view mirrors the exact one, key for key.
        assert timeline.attribution() == {
            kind: float(value) for kind, value in exact.items()
        }

    @settings(deadline=None)
    @given(st.lists(
        st.one_of(
            st.tuples(st.just("serial"),
                      st.sampled_from(("transfer", "compute", "api")),
                      st.floats(min_value=0.0, max_value=500.0)),
            st.tuples(st.just("place"),
                      st.sampled_from(("transfer", "compute", "api")),
                      st.tuples(st.floats(min_value=0.0, max_value=2000.0),
                                st.floats(min_value=0.0, max_value=500.0))),
            st.tuples(st.just("wait"), st.just("api"),
                      st.floats(min_value=0.0, max_value=2500.0)),
        ),
        max_size=40,
    ))
    def test_attribution_matches_fraction_keyed_sweep(self, script):
        """Fractional float boundaries give the very Fractions that a
        sweep keyed by Fraction boundaries gives."""
        timeline = ScheduleTimeline()
        for op, kind, arg in script:
            if op == "serial":
                timeline.serial_advance(kind, arg)
            elif op == "place":
                start, dur = arg
                timeline.place(kind, start, start + dur)
            else:
                timeline.host_wait(arg)
        assert timeline.attribution_exact() == _fraction_sweep(timeline)

    @settings(deadline=None, max_examples=40)
    @given(
        st.lists(st.tuples(st.integers(min_value=0, max_value=2),
                           st.integers(min_value=1, max_value=300),
                           st.booleans()),
                 min_size=1, max_size=15),
        st.booleans(),
    )
    def test_queue_streams_have_no_idle_and_exact_coverage(
        self, stream, out_of_order
    ):
        """Commands issued through a real queue (with interleaved API
        charges and finishes) cover the composed axis gaplessly: every
        start is the max of already-covered instants."""
        reset_platforms()
        with fresh_clock() as clock:
            ctx, queue = _setup(out_of_order, clock)
            for buf_id, ns, also_api in stream:
                _kernel(queue, float(ns), writes=(buf_id,))
                if also_api:
                    ctx.charge_api_call()
            queue.finish()
            exact = clock.timeline.attribution_exact()
            assert exact["idle"] == 0
            assert sum(exact.values(), Fraction(0)) == Fraction(
                clock.timeline.elapsed_ns
            )

    def test_single_inorder_queue_elapsed_equals_busy(self):
        """With one in-order queue and no host work, end-to-end time is
        the queue's serial drain: no overlap, elapsed == busy time."""
        reset_platforms()
        with fresh_clock() as clock:
            ctx, queue = _setup(out_of_order=False, clock=clock)
            for ns in (100.0, 250.0, 75.0):
                _kernel(queue, ns)
            queue.finish()
            assert clock.timeline.elapsed_ns == clock.now_ns == 425.0
            attribution = clock.timeline.attribution()
            assert attribution["overlap"] == 0.0
            assert attribution["idle"] == 0.0
            assert attribution["compute"] == 425.0

    def test_elapsed_never_exceeds_busy_or_precedes_host(self):
        reset_platforms()
        with fresh_clock() as clock:
            ctx, queue = _setup(out_of_order=True, clock=clock)
            _kernel(queue, 100.0, writes=(1,))
            _kernel(queue, 80.0, writes=(2,))  # overlaps on paper? no:
            # same engine — serializes; an api call does overlap.
            ctx.charge_api_call()
            assert clock.timeline.elapsed_ns <= clock.now_ns
            assert clock.timeline.host_pos_ns <= clock.timeline.elapsed_ns


class TestComposedFences:
    """finish/barrier/marker semantics on the cross-queue axis."""

    def test_finish_on_one_queue_gates_commands_on_another(self):
        reset_platforms()
        with fresh_clock() as clock:
            ctx1, q1 = _setup(out_of_order=True, clock=clock)
            ctx2, q2 = _setup(out_of_order=True, clock=clock)
            e1 = _kernel(q1, 500.0)
            q1.finish()  # blocking host call: cursor -> 500
            assert clock.timeline.host_pos_ns == 500.0
            e2 = _kernel(q2, 100.0)
            # q2 has no dependency on q1, but the host only issued its
            # command after the blocking finish returned.
            assert e2.e2e_start_ns == 500.0
            assert e2.sched_start_ns == 0.0  # queue-local: unaffected

    def test_finish_without_new_commands_is_idempotent(self):
        reset_platforms()
        with fresh_clock() as clock:
            ctx, queue = _setup(out_of_order=False, clock=clock)
            _kernel(queue, 300.0)
            queue.finish()
            queue.finish()
            assert clock.timeline.host_pos_ns == 300.0
            assert clock.timeline.elapsed_ns == 300.0

    def test_barrier_fences_own_queue_only(self):
        reset_platforms()
        with fresh_clock() as clock:
            ctx1, q1 = _setup(out_of_order=True, clock=clock)
            ctx2, q2 = _setup(out_of_order=True, clock=clock)
            _kernel(q1, 400.0, writes=(1,))
            q1.enqueue_barrier()
            after_own = _kernel(q1, 50.0, writes=(2,))
            other = _kernel(q2, 60.0, writes=(9,))
            # Own queue: fenced behind the 400 ns kernel on both axes.
            assert after_own.sched_start_ns == 400.0
            assert after_own.e2e_start_ns == 400.0
            # Other queue: not fenced at all (barriers are queue-local;
            # no blocking host call happened).
            assert other.e2e_start_ns == 0.0

    def test_marker_does_not_fence_either_axis(self):
        from repro.opencl import Buffer

        reset_platforms()
        with fresh_clock() as clock:
            ctx, queue = _setup(out_of_order=True, clock=clock)
            buf = Buffer(ctx, 8)
            _kernel(queue, 400.0, writes=(99,))
            marker = queue.enqueue_marker()
            # A transfer on the DMA engine with no hazard against the
            # kernel: a barrier would hold it, the marker must not.
            free = queue.enqueue_write_buffer(buf, [0.0] * 8)
            assert marker.e2e_end_ns == 400.0  # completes with the work
            assert free.sched_start_ns == 0.0  # independent: not held
            assert free.e2e_start_ns == 0.0

    def test_barrier_like_single_queue_composed(self):
        """A two-queue program where only the host cursor couples the
        queues behaves like the equivalent single-queue program."""
        reset_platforms()
        with fresh_clock() as clock:
            ctx1, q1 = _setup(out_of_order=True, clock=clock)
            _kernel(q1, 100.0, writes=(1,))
            q1.enqueue_barrier()
            tail1 = _kernel(q1, 30.0, writes=(2,))
            single_elapsed_contrib = tail1.e2e_end_ns
        reset_platforms()
        with fresh_clock() as clock:
            ctx1, q1 = _setup(out_of_order=True, clock=clock)
            ctx2, q2 = _setup(out_of_order=True, clock=clock)
            _kernel(q1, 100.0, writes=(1,))
            q1.enqueue_barrier()
            tail = _kernel(q1, 30.0, writes=(2,))
            assert tail.e2e_end_ns == single_elapsed_contrib


class TestResetLedger:
    """reset_ledger restarts the composed origin, and nothing else."""

    def test_reset_restarts_origin_and_preserves_overlap(self):
        reset_platforms()
        with fresh_clock() as clock:
            ctx, queue = _setup(out_of_order=True, clock=clock)
            _kernel(queue, 100.0, writes=(1,))
            _kernel(queue, 80.0, reads=(1,), writes=(2,))
            overlap_before = queue.overlap_ns
            assert clock.timeline.elapsed_ns == 180.0
            ctx.reset_ledger()
            assert clock.timeline.elapsed_ns == 0.0
            assert queue.e2e_makespan_ns == 0.0  # stale epoch reads 0
            assert queue.overlap_ns == overlap_before  # queue-local kept
            fresh = _kernel(queue, 40.0, writes=(3,))
            assert fresh.e2e_start_ns == 0.0  # new run starts at origin

    def test_stale_cross_epoch_dependencies_do_not_inflate(self):
        """An explicit wait on an event placed before the reset must
        not drag its old composed coordinates into the new epoch."""
        reset_platforms()
        with fresh_clock() as clock:
            ctx, queue = _setup(out_of_order=True, clock=clock)
            old = _kernel(queue, 900.0, writes=(1,))
            ctx.reset_ledger()
            dependent = _kernel(queue, 50.0, wait_for=[old])
            assert dependent.e2e_start_ns == 0.0
            # Queue-locally the wait still binds (that axis never
            # reset): the dependent starts after the old command.
            assert dependent.sched_start_ns == 900.0

    def test_reset_then_finish_does_not_drag_host_cursor(self):
        """finish() after a reset must not advance the cursor to the
        previous epoch's makespan."""
        reset_platforms()
        with fresh_clock() as clock:
            ctx, queue = _setup(out_of_order=False, clock=clock)
            _kernel(queue, 700.0)
            ctx.reset_ledger()
            queue.finish()
            assert clock.timeline.host_pos_ns == 0.0
            assert clock.timeline.elapsed_ns == 0.0

    def test_hazards_rebind_across_reset(self):
        """Hazard tables still reference pre-reset events; composed
        placement must treat them as satisfied at the new origin."""
        reset_platforms()
        with fresh_clock() as clock:
            ctx, queue = _setup(out_of_order=True, clock=clock)
            _kernel(queue, 600.0, writes=(7,))
            ctx.reset_ledger()
            reader = _kernel(queue, 10.0, reads=(7,))
            assert reader.e2e_start_ns == 0.0
            assert reader.sched_start_ns == 600.0  # local RAW still real
