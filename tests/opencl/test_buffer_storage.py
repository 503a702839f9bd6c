"""Buffer storage contract: one typed array per buffer.

Host read-back yields plain Python scalars of the buffer's element type
whichever tier last wrote the buffer, and a scalar-tier store that the
element type cannot hold is a kernel runtime error.
"""

from __future__ import annotations

import pytest

from repro.errors import KirRuntimeError
from repro.opencl import Buffer, CommandQueue, Context, Program, find_device
from repro.opencl import dispatch
from repro.trace import tracing

KERNELS = """
__kernel void bump_float(__global float *a) {
    int i = get_global_id(0);
    a[i] = a[i] + 1.5;
}
__kernel void bump_int(__global int *a) {
    int i = get_global_id(0);
    a[i] = a[i] + 1;
}
__kernel void bump_bool(__global bool *a) {
    int i = get_global_id(0);
    a[i] = !a[i];
}
__kernel void twice(__global int *a) {
    int i = get_global_id(0);
    a[i] = a[i] + a[i];
}
"""

HOST_DATA = {
    # Integer host data uploaded into a float buffer must come back as
    # floats: the buffer's type, not the host list's, decides.
    "float": [1, 2, 3, 4],
    "int": [1, 2, 3, 4],
    "bool": [True, False, True, False],
}

PY_TYPE = {"float": float, "int": int, "bool": bool}


def _setup():
    device = find_device("GPU")
    ctx = Context([device])
    return ctx, CommandQueue(ctx, device), Program(ctx, KERNELS).build()


def _read_back(queue, buf):
    out = [None] * buf.n_elements
    queue.enqueue_read_buffer(buf, out)
    return out


def _assert_exact_type(values, dtype):
    assert {type(v) for v in values} == {PY_TYPE[dtype]}


@pytest.mark.parametrize("dtype", sorted(PY_TYPE))
def test_never_written_buffer_reads_back_typed_zeros(dtype):
    ctx, queue, _ = _setup()
    values = _read_back(queue, Buffer(ctx, 8, dtype))
    _assert_exact_type(values, dtype)
    assert values == [PY_TYPE[dtype]()] * 8


@pytest.mark.parametrize("dtype", sorted(PY_TYPE))
def test_host_upload_reads_back_as_the_buffer_type(dtype):
    ctx, queue, _ = _setup()
    buf = Buffer(ctx, 4, dtype)
    queue.enqueue_write_buffer(buf, HOST_DATA[dtype])
    values = _read_back(queue, buf)
    _assert_exact_type(values, dtype)
    assert values == HOST_DATA[dtype]


@pytest.mark.parametrize("dtype", sorted(PY_TYPE))
@pytest.mark.parametrize(
    "n, fallbacks",
    [(32, 1), (dispatch.VEC_MIN_ITEMS, 0)],
    ids=["scalar-tier", "vec-tier"],
)
def test_kernel_output_reads_back_as_the_buffer_type(dtype, n, fallbacks):
    ctx, queue, program = _setup()
    buf = Buffer(ctx, n, dtype)
    queue.enqueue_write_buffer(buf, (HOST_DATA[dtype] * n)[:n])
    kernel = program.create_kernel(f"bump_{dtype}")
    kernel.set_arg(0, buf)
    with tracing() as tr:
        queue.enqueue_nd_range_kernel(kernel, [n], [8])
    assert tr.counter("dispatch.fallback") == fallbacks
    values = _read_back(queue, buf)
    _assert_exact_type(values, dtype)
    if dtype == "bool":
        assert values[:4] == [not v for v in HOST_DATA["bool"]]
    else:
        assert values[:4] == [v + PY_TYPE[dtype](1.5) for v in HOST_DATA[dtype]]


def test_scalar_tier_int64_overflow_is_a_kernel_error():
    ctx, queue, program = _setup()
    buf = Buffer(ctx, 32, "int")
    queue.enqueue_write_buffer(buf, [2**62] * 32)
    kernel = program.create_kernel("twice")
    kernel.set_arg(0, buf)
    with pytest.raises(KirRuntimeError, match="store rejected"):
        queue.enqueue_nd_range_kernel(kernel, [32], [8])
