"""Device memory objects.

Buffers are typed (float / int / bool elements) rather than raw bytes —
a deliberate simplification that keeps the simulated kernels directly
executable — but all paper-relevant behaviour is preserved: buffers
live on the device side of a modelled host link, moving data across it
costs simulated time proportional to the byte size, and host code can
only observe kernel writes after an explicit read-back.

Each buffer is stored once, as a typed NumPy array (``float64`` /
``int64`` / ``bool``).  The vectorised kernel tier operates on the
array itself; the scalar engines index it through a ``memoryview``, so
their loads yield plain Python ``float`` / ``int`` / ``bool`` and their
stores land in the array directly.  Simulated costs never depend on
which engine executed an access.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

import numpy as _np

from ..errors import CLInvalidValue, CLMemObjectReleased
from .context import Context
from .costmodel import ELEMENT_BYTES

_buffer_ids = itertools.count(1)

# Memory flags (subset of the OpenCL CL_MEM_* flags).
READ_WRITE = "READ_WRITE"
READ_ONLY = "READ_ONLY"
WRITE_ONLY = "WRITE_ONLY"
COPY_HOST_PTR = "COPY_HOST_PTR"


def np_dtype(dtype: str):
    """NumPy dtype for a buffer element type."""
    return {"float": _np.float64, "int": _np.int64, "bool": _np.bool_}[dtype]


class Buffer:
    """A device-resident 1-D array of scalars."""

    def __init__(
        self,
        context: Context,
        n_elements: int,
        dtype: str = "float",
        flags: Sequence[str] = (READ_WRITE,),
        host_data: Optional[Sequence] = None,
    ) -> None:
        if dtype not in ELEMENT_BYTES:
            raise CLInvalidValue(f"bad buffer dtype {dtype!r}")
        if n_elements < 0:
            raise CLInvalidValue("buffer size must be non-negative")
        self.id = next(_buffer_ids)
        #: Creation index within the owning context.  Unlike ``id``
        #: (process-global, monotonic), the ordinal restarts at 0 for
        #: every context, which makes it a run-stable identity — the
        #: fault-injection layer keys transfer decisions on it so a
        #: replayed run reproduces the same injections (faults.py).
        self.ordinal = len(context._buffers)
        self.context = context
        self.dtype = dtype
        self.n_elements = n_elements
        self.flags = tuple(flags)
        self.released = False
        #: Transfer-elimination marker: ``(residency_epoch, device_id)``
        #: of the last clean transfer that certified host and device
        #: copies equal, or None once a kernel (or device-side copy) has
        #: written the buffer (:meth:`mark_np_written`).  Set by the
        #: queue layer; consulted only when the graph-level optimiser is
        #: enabled.
        self._h2d_clean: Optional[tuple] = None
        if COPY_HOST_PTR in self.flags:
            if host_data is None:
                raise CLInvalidValue("COPY_HOST_PTR without host data")
            if len(host_data) != n_elements:
                raise CLInvalidValue(
                    f"host data length {len(host_data)} != {n_elements}"
                )
            self._array = _np.array(host_data, dtype=np_dtype(dtype))
        else:
            self._array = _np.zeros(n_elements, dtype=np_dtype(dtype))
        context._buffers.append(self)

    # -- storage -----------------------------------------------------------

    @property
    def data(self) -> _np.ndarray:
        """The buffer contents: the live typed array, which callers may
        read and write in place.

        Observing contents is a flush point for the graph-level
        optimiser: a kernel deferred for fusion must execute before its
        output can be read.
        """
        if self.context._fusion_pending:
            self.context.flush_pending()
        return self._array

    @data.setter
    def data(self, values: Sequence) -> None:
        self.data[:] = values

    def contents_equal(self, values) -> bool:
        """Whether the buffer currently holds exactly *values* (the
        transfer-elimination pass's redundancy probe)."""
        return _np.array_equal(self._array, values)

    def np_view(self) -> _np.ndarray:
        """Alias of :attr:`data`."""
        return self.data

    def mark_np_written(self) -> None:
        """Something other than a host transfer stored into the buffer
        (a kernel or a device-side copy): clear the transfer-elimination
        marker, so the next upload of the same host data is priced."""
        self._h2d_clean = None

    # -- geometry / lifecycle ----------------------------------------------

    @property
    def nbytes(self) -> int:
        return self.n_elements * ELEMENT_BYTES[self.dtype]

    def check_alive(self) -> None:
        if self.released:
            raise CLMemObjectReleased(f"buffer {self.id} was released")

    def release(self) -> None:
        """Return the device memory.  Double release is an error."""
        self.check_alive()
        self.released = True
        if self.context._fusion_pending:
            self.context.flush_pending()
        self._array = _np.empty(0, dtype=self._array.dtype)
        try:
            self.context._buffers.remove(self)
        except ValueError:  # pragma: no cover - defensive
            pass

    def __len__(self) -> int:
        return self.n_elements

    def __repr__(self) -> str:
        state = "released" if self.released else f"{self.n_elements}x{self.dtype}"
        return f"<Buffer {self.id} {state}>"
