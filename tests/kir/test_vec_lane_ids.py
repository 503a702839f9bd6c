"""The vectorised tier's per-shape cache of work-item index arrays.

Kernel prologues fetch ``__lin``/``__g*``/``__l*``/``__grp*``/``__grow``
from :func:`repro.kir.npcodegen._lane_ids` instead of recomputing them
on every dispatch.  The cached arrays are shared, so they must be
read-only, keyed by the full NDRange shape, bounded, and never
disturbed by a kernel that reassigns a variable bound to one of them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.kir import npcodegen
from repro.opencl import Buffer, CommandQueue, Context, Program, find_device

NAMES = ("__lin", "__g0", "__g1", "__g2", "__l0", "__l1", "__grp0",
         "__grp1", "__grow")

REASSIGNS_ID = """
__kernel void k(__global int *out, int n) {
    int i = get_global_id(0);
    i = i * 2 + 1;
    if (i % 3 == 0) { i = i + n; }
    out[get_global_id(0)] = i;
}
"""


@pytest.fixture(autouse=True)
def _fresh_cache():
    saved = dict(npcodegen._lane_id_cache)
    npcodegen._lane_id_cache.clear()
    yield
    npcodegen._lane_id_cache.clear()
    npcodegen._lane_id_cache.update(saved)


def test_arrays_match_the_index_formulas():
    g, l = (8, 6, 2), (4, 3, 1)
    ids = dict(zip(NAMES, npcodegen._lane_ids(g, l, NAMES)))
    lin = np.arange(8 * 6 * 2)
    x, y, z = lin % 8, (lin // 8) % 6, lin // 48
    assert ids["__lin"].tolist() == lin.tolist()
    assert ids["__g0"].tolist() == x.tolist()
    assert ids["__g1"].tolist() == y.tolist()
    assert ids["__g2"].tolist() == z.tolist()
    assert ids["__l0"].tolist() == (x % 4).tolist()
    assert ids["__l1"].tolist() == (y % 3).tolist()
    assert ids["__grp0"].tolist() == (x // 4).tolist()
    assert ids["__grp1"].tolist() == (y // 3).tolist()
    assert ids["__grow"].tolist() == ((z * 2 + y // 3) * 2 + x // 4).tolist()


def test_arrays_are_read_only():
    for arr in npcodegen._lane_ids((16, 1, 1), (4, 1, 1), NAMES):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1


def test_same_shape_hits_and_changed_shape_misses():
    first = npcodegen._lane_ids((16, 2, 1), (4, 2, 1), NAMES)
    again = npcodegen._lane_ids((16, 2, 1), (4, 2, 1), NAMES)
    assert all(a is b for a, b in zip(first, again))
    for g, l in [((16, 2, 1), (8, 2, 1)), ((32, 1, 1), (4, 1, 1))]:
        other = npcodegen._lane_ids(g, l, NAMES)
        assert all(a is not b for a, b in zip(first, other))
    assert len(npcodegen._lane_id_cache) == 3


def test_cache_is_bounded():
    for n in range(1, 200):
        npcodegen._lane_ids((n, 1, 1), (1, 1, 1), ("__lin", "__g0"))
        assert len(npcodegen._lane_id_cache) <= 64


def _dispatch(n):
    device = find_device("GPU")
    ctx = Context([device])
    queue = CommandQueue(ctx, device)
    kernel = Program(ctx, REASSIGNS_ID).build().create_kernel("k")
    buf = Buffer(ctx, n, "int")
    queue.enqueue_write_buffer(buf, [0] * n)
    kernel.set_arg(0, buf)
    kernel.set_arg(1, n)
    queue.enqueue_nd_range_kernel(kernel, [n], [8])
    queue.finish()
    return buf.data.tolist()


def test_reassigned_id_local_leaves_the_cache_intact():
    n = 512  # vectorised tier
    want = []
    for gid in range(n):
        i = gid * 2 + 1
        want.append(i + n if i % 3 == 0 else i)
    assert _dispatch(n) == want
    assert _dispatch(n) == want
    (lanes,) = npcodegen._lane_id_cache.values()
    assert lanes  # get_global_id(0), a 1-D range: 0 .. n-1
    for arr in lanes:
        assert arr.tolist() == list(range(n))
