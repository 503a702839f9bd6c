"""Property suite for active-lane compaction (hypothesis).

Random divergent-loop kernels are generated from a small grammar —
per-lane trip counts, optional ``continue``/``break`` arms, nested
inner loops, and deliberately repeated subexpressions (CSE bait) — and
executed with compaction forced on (density 1.0, checked every round)
and forced off (density 0.0).  Outputs, per-group warp maxima and
priced ledger totals must be bit-identical: compaction and CSE are
wall-clock optimisations only, invisible to everything the simulation
reports.

A second grammar does the same for compacted ``if``/``else`` arms:
nested arms, stores under the mask, loads indexed by lane ids, mixed
int/float variables, and arms inside masked loops.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import kernelc
from repro.kir import npcodegen
from repro.kir.pycodegen import _Emitter
from repro.opencl import Buffer, CommandQueue, Context, Program, find_device
from repro.opencl.costmodel import group_warp_costs

N = 256  # >= dispatch.VEC_MIN_ITEMS so the full path takes the vec tier
LSZ = 8
SIMD = 8


@st.composite
def divergent_kernels(draw):
    """A kernel whose masked loop drains lanes at per-lane rates."""
    trip_mod = draw(st.integers(min_value=2, max_value=9))
    trip_base = draw(st.integers(min_value=1, max_value=12))
    step = draw(st.integers(min_value=1, max_value=3))
    arm = draw(st.sampled_from(["none", "continue", "break", "both"]))
    arm_mod = draw(st.integers(min_value=2, max_value=5))
    body = draw(st.sampled_from([
        "s += i + j;",
        "s += (i + j) * (i + j);",   # repeated subtree: CSE bait
        "s += i % 5 + j;",
        "s = s + j * 2 + 1;",
    ]))
    nested = draw(st.booleans())
    lines = [
        "__kernel void k(__global int *out, int n) {",
        "    int i = get_global_id(0);",
        "    int s = 0;",
        "    int j = 0;",
        f"    while (j < i % {trip_mod} + {trip_base}) {{",
    ]
    if arm in ("continue", "both"):
        lines.append(
            f"        if ((i + j) % {arm_mod} == 0) {{ j += {step}; "
            "continue; }"
        )
    if arm in ("break", "both"):
        lines.append(f"        if (s > 50 + i % 17) {{ break; }}")
    lines.append(f"        {body}")
    if nested:
        lines.append("        for (int t = 0; t < j % 3 + 1; t++) "
                     "{ s += t; }")
    lines.append(f"        j += {step};")
    lines.append("    }")
    lines.append("    out[i] = s;")
    lines.append("}")
    return "\n".join(lines)


_CONDS = [
    "i % {a} < {b}",
    "s > {c}",
    "(i + t) % {a} == 0",
    "i > {d}",
    "x < {b}.5",
]


@st.composite
def _cond(draw):
    return draw(st.sampled_from(_CONDS)).format(
        a=draw(st.integers(min_value=2, max_value=7)),
        b=draw(st.integers(min_value=0, max_value=6)),
        c=draw(st.integers(min_value=-3, max_value=40)),
        d=draw(st.integers(min_value=0, max_value=N)),
    )


#: Cross-lane accesses: a read-modify-write of another lane's slot and
#: many lanes storing one slot.  Both tiers run them in lock-step, so
#: they only enter the compaction on/off comparison, not the comparison
#: with the item-by-item scalar engine.
_RACY = [
    "out[(i + {b}) % n] = out[(i + {b}) % n] + 1;",
    "acc[i % {a}] = s;",
    "acc[0] = t;",
]


@st.composite
def _arm(draw, depth, racy):
    """One ``if`` arm: assignments, loads at lane-id offsets, stores
    under the mask, and (above the leaf) a nested ``if``/``else``."""
    pool = [
        "s += src[(i * {a} + {b}) % n];",
        "t = t + i % {a};",
        "x = x * 0.5 + (float)(s % {a});",
        "x = x / (float)(t * t + 1);",
        "out[i] = s + t;",
        "int {u} = s - {b}; s = {u} * 2;",
    ] + (_RACY if racy else [])
    lines = [
        draw(st.sampled_from(pool)).format(
            a=draw(st.integers(min_value=2, max_value=9)),
            b=draw(st.integers(min_value=0, max_value=N)),
            u=f"u{depth}_{k}",  # unique within an arm, never shadowing
        )
        for k in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    if depth > 0 and draw(st.booleans()):
        lines.append(draw(_if_stmt(depth - 1, racy)))
    return " ".join(lines)


@st.composite
def _if_stmt(draw, depth, racy):
    cond = draw(_cond())
    text = f"if ({cond}) {{ {draw(_arm(depth, racy))} }}"
    if draw(st.booleans()):
        text += f" else {{ {draw(_arm(depth, racy))} }}"
    return text


@st.composite
def divergent_if_kernels(draw, racy=True):
    """A kernel whose ``if``/``else`` arms run under sparse lane masks,
    optionally inside a masked loop with per-lane trip counts."""
    lines = [
        "__kernel void k(__global int *out, __global int *src, "
        "__global int *acc, int n) {",
        "    int i = get_global_id(0);",
        "    int s = src[i];",
        "    int t = i % 3;",
        "    float x = (float)i;",
        f"    {draw(_if_stmt(2, racy))}",
    ]
    if draw(st.booleans()):
        trip = draw(st.integers(min_value=2, max_value=6))
        lines.append(f"    for (int j = 0; j < i % {trip} + 1; j++) {{")
        lines.append(f"        {draw(_if_stmt(1, racy))}")
        lines.append("        s += j;")
        lines.append("    }")
    lines.append("    out[i] = out[i] + s + t + (int)x;")
    lines.append("}")
    return "\n".join(lines)


def _buffers(np):
    """Fresh (out, src, acc) contents for the if-grammar kernels."""
    src = [(7 * k + 3) % 29 - 5 for k in range(N)]
    return (np.zeros(N, np.int64), np.array(src, np.int64),
            np.zeros(N, np.int64))


def _full_dispatch(source, inputs):
    """Run *source* through Context/Queue and return (contents, ns)."""
    device = find_device("GPU")
    ctx = Context([device])
    queue = CommandQueue(ctx, device)
    program = Program(ctx, source).build()
    kernel = program.create_kernel("k")
    bufs = []
    for data in inputs:
        buf = Buffer(ctx, N, "int")
        queue.enqueue_write_buffer(buf, data.tolist())
        bufs.append(buf)
    for index, buf in enumerate(bufs):
        kernel.set_arg(index, buf)
    kernel.set_arg(len(bufs), N)
    queue.enqueue_nd_range_kernel(kernel, [N], [LSZ])
    queue.finish()
    return [buf.data.tolist() for buf in bufs], ctx.ledger.kernel_ns


def _at_density(source, density, every=1, inputs=None):
    import numpy as np

    if inputs is None:
        inputs = (np.zeros(N, np.int64),)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(npcodegen, "COMPACT_DENSITY", density)
        mp.setattr(npcodegen, "COMPACT_CHECK_EVERY", every)
        compiled = kernelc.build(source)
        runner = compiled.kernel_runner("k")
        assert runner.vec is not None, runner.vec_reason
        args = [a.copy() for a in inputs] + [N]
        warps = runner.vec.run_group_warps(args, [N], [LSZ], SIMD)
        contents, ns = _full_dispatch(source, inputs)
        return [a.tolist() for a in args[:-1]], warps.tolist(), contents, ns


class TestCompactionProperties:
    @settings(deadline=None, max_examples=30)
    @given(divergent_kernels())
    def test_on_off_identical(self, source):
        on = _at_density(source, 1.0, every=1)
        off = _at_density(source, 0.0)
        out_on, warps_on, contents_on, ns_on = on
        out_off, warps_off, contents_off, ns_off = off
        assert out_on == out_off
        assert warps_on == warps_off
        assert contents_on == contents_off
        assert ns_on == ns_off

    @settings(deadline=None, max_examples=15)
    @given(divergent_kernels(),
           st.floats(min_value=0.1, max_value=0.9),
           st.integers(min_value=1, max_value=6))
    def test_intermediate_densities_match_reference(self, source, density,
                                                    every):
        got = _at_density(source, density, every=every)
        ref = _at_density(source, 0.0)
        assert got == ref

    @settings(deadline=None, max_examples=10)
    @given(divergent_kernels())
    def test_scalar_reference_agreement(self, source):
        """The compacted vec tier agrees with the per-item interpreter
        path, not just with its own uncompacted self."""
        compiled = kernelc.build(source)
        runner = compiled.kernel_runner("k")
        ref_args = [[0] * N, N]
        runner.run_range(ref_args, [N], [LSZ])
        on_out = _at_density(source, 1.0, every=1)[0]
        assert on_out[0] == ref_args[0]


@pytest.mark.vec
class TestIfCompactionProperties:
    @settings(deadline=None, max_examples=40)
    @given(divergent_if_kernels())
    def test_on_off_identical(self, source):
        import numpy as np

        inputs = _buffers(np)
        on = _at_density(source, 1.0, every=1, inputs=inputs)
        off = _at_density(source, 0.0, inputs=inputs)
        assert on == off

    @settings(deadline=None, max_examples=15)
    @given(divergent_if_kernels(racy=False))
    def test_scalar_reference_agreement(self, source):
        """Compacted arms agree with the per-item scalar engine on
        buffers and on warp maxima, not just with the full-width tier."""
        import numpy as np

        inputs = _buffers(np)
        runner = kernelc.build(source).kernel_runner("k")
        ref_args = [a.tolist() for a in inputs] + [N]
        item_ops = runner.run_range(ref_args, [N], [LSZ])
        out, warps, _, _ = _at_density(source, 1.0, inputs=inputs)
        assert out == ref_args[:-1]
        assert warps == group_warp_costs(item_ops, [N], [LSZ], SIMD)


SPARSE_ARM = """
__kernel void k(__global int *out, int n) {
    int i = get_global_id(0);
    int s = i % 5;
    if (i % 16 == 3) {
        s = s * 7 + out[i];
        out[i] = s;
    }
    out[i] = out[i] + s;
}
"""

# The arm's declaration shadows the outer ``x`` with a per-lane value;
# at compacted width it would leave ``x`` narrower than the range.
SHADOWING_ARM = """
__kernel void k(__global int *out, int n) {
    int i = get_global_id(0);
    int x = i;
    if (i % 16 == 3) {
        int x = i * 2;
        out[i] = x;
    }
    out[i] = out[i] + x;
}
"""

# ``break`` subtracts lanes from the loop's mask, which lives at the
# loop's width, so the arm holding it stays full width.
BREAK_ARM = """
__kernel void k(__global int *out, int n) {
    int i = get_global_id(0);
    int s = 0;
    for (int j = 0; j < 8; j++) {
        if (i % 16 == j) { break; }
        s += j;
    }
    out[i] = s;
}
"""


class TestIfCompactionRules:
    def _events(self, source, density):
        before = npcodegen.thread_compact_stats()[0]
        result = _at_density(source, density)
        return npcodegen.thread_compact_stats()[0] - before, result

    def test_sparse_arm_compacts_and_counts(self):
        events, on = self._events(SPARSE_ARM, 0.5)
        assert events >= 2  # the direct run and the queue dispatch
        off_events, off = self._events(SPARSE_ARM, 0.0)
        assert off_events == 0
        assert on == off

    @pytest.mark.parametrize("source", [SHADOWING_ARM, BREAK_ARM])
    def test_arm_stays_full_width(self, source):
        module = kernelc.compile_source(source)
        em = _Emitter()
        npcodegen._gen_vec_kernel(module, module.functions["k"], em)
        assert "__varm" not in em.source()
        assert _at_density(source, 1.0) == _at_density(source, 0.0)
