"""Simulated device memory: global buffers, transfers, shared memory.

GPApriori's host/device choreography (paper Section IV.2) is:

1. once, at start-up: copy the generation-1 bitset table host->device;
2. per generation: copy the candidate buffer host->device, launch the
   support kernel, copy the support array device->host.

:class:`GlobalMemory` gives that choreography real objects to act on —
a capacity-checked allocator whose buffers live in simulated device
address space — and counts every PCIe hop and allocation into the
run's :class:`~repro.obs.MetricsRegistry` as it happens
(``transfer.*`` counters). Device buffers are intentionally *not* NumPy
views of host arrays: host code must go through ``htod``/``dtoh``,
making any extra transfer visible in those counters.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import DeviceMemoryError, GpuSimError
from ..faults.injection import fault_point
from ..obs import span
from ..obs.metrics import MetricsRegistry

__all__ = ["DeviceBuffer", "GlobalMemory", "SharedMemory"]


class DeviceBuffer:
    """A typed allocation in simulated global memory.

    The backing store is a NumPy array owned by the device; the host
    must use :meth:`GlobalMemory.htod` / :meth:`GlobalMemory.dtoh` to
    move data. ``addr`` is the simulated base address — the coalescing
    analyzer uses it to compute absolute byte addresses of accesses.
    """

    __slots__ = ("name", "addr", "_data", "_freed")

    def __init__(self, name: str, addr: int, shape: Tuple[int, ...], dtype) -> None:
        self.name = name
        self.addr = addr
        self._data = np.zeros(shape, dtype=dtype)
        self._freed = False

    @property
    def data(self) -> np.ndarray:
        """Device-side array. Kernel code reads/writes through the context."""
        if self._freed:
            raise DeviceMemoryError(f"use-after-free of device buffer {self.name!r}")
        return self._data

    @property
    def nbytes(self) -> int:
        return self._data.nbytes

    @property
    def dtype(self):
        return self._data.dtype

    @property
    def shape(self) -> Tuple[int, ...]:
        return self._data.shape

    def byte_address(self, flat_index: int) -> int:
        """Absolute simulated address of element ``flat_index``."""
        return self.addr + flat_index * self._data.itemsize

    def __repr__(self) -> str:
        state = "freed" if self._freed else f"{self.shape}:{self.dtype}"
        return f"DeviceBuffer({self.name!r}, addr=0x{self.addr:x}, {state})"


class GlobalMemory:
    """Capacity-checked bump allocator over simulated device memory.

    Parameters
    ----------
    capacity_bytes:
        Device global-memory size (4 GiB for the T10).
    alignment:
        Allocation alignment; CUDA guarantees 256-byte alignment from
        ``cudaMalloc``, which comfortably satisfies the paper's 64-byte
        row alignment requirement.
    registry:
        The run's :class:`~repro.obs.MetricsRegistry`; each hop adds to
        its ``transfer.htod_bytes``/``htod_count``/``dtoh_bytes``/
        ``dtoh_count``/``alloc_bytes`` counters. ``None`` (standalone
        use) counts into a registry of the allocator's own.
    """

    def __init__(
        self,
        capacity_bytes: int,
        alignment: int = 256,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if capacity_bytes <= 0:
            raise GpuSimError("capacity must be positive")
        if alignment < 1 or alignment & (alignment - 1):
            raise GpuSimError("alignment must be a positive power of two")
        self.capacity_bytes = int(capacity_bytes)
        self.alignment = alignment
        self._next_addr = alignment  # leave address 0 unused, like NULL
        self._buffers: Dict[int, DeviceBuffer] = {}
        self._in_use = 0
        self.peak_bytes = 0  # high-water mark of _in_use
        self.registry = registry if registry is not None else MetricsRegistry()
        # a run that never copies back still reports its counters, at zero
        for name in ("htod_bytes", "htod_count", "dtoh_bytes", "dtoh_count", "alloc_bytes"):
            self._count(name, 0)

    def _count(self, name: str, amount: int) -> None:
        self.registry.inc("transfer." + name, amount)

    # -- allocation -------------------------------------------------------------

    def alloc(self, name: str, shape, dtype) -> DeviceBuffer:
        """Allocate a zero-initialized buffer (cudaMalloc + cudaMemset)."""
        if isinstance(shape, (int, np.integer)):
            shape = (int(shape),)
        else:
            shape = tuple(int(s) for s in shape)
        if any(s < 0 for s in shape):
            raise GpuSimError(f"negative dimension in shape {shape}")
        itemsize = np.dtype(dtype).itemsize
        nbytes = int(np.prod(shape, dtype=np.int64)) * itemsize
        fault_point("gpusim.alloc", buffer=name, bytes=nbytes)
        if self._in_use + nbytes > self.capacity_bytes:
            raise DeviceMemoryError(
                f"device OOM allocating {nbytes} bytes for {name!r}: "
                f"{self._in_use}/{self.capacity_bytes} in use"
            )
        addr = self._next_addr
        buf = DeviceBuffer(name, addr, shape, dtype)
        padded = -(-nbytes // self.alignment) * self.alignment
        self._next_addr += max(padded, self.alignment)
        self._in_use += nbytes
        self._buffers[addr] = buf
        self._count("alloc_bytes", nbytes)
        self.peak_bytes = max(self.peak_bytes, self._in_use)
        return buf

    def free(self, buf: DeviceBuffer) -> None:
        """Release a buffer (cudaFree); later access raises."""
        if buf.addr not in self._buffers:
            raise DeviceMemoryError(f"double free or foreign buffer {buf.name!r}")
        self._in_use -= buf.nbytes
        del self._buffers[buf.addr]
        buf._freed = True

    @property
    def bytes_in_use(self) -> int:
        return self._in_use

    # -- transfers ----------------------------------------------------------------

    def htod(self, buf: DeviceBuffer, host_array: np.ndarray) -> None:
        """Copy host -> device (cudaMemcpyHostToDevice); shapes must match."""
        host_array = np.asarray(host_array)
        if host_array.shape != buf.shape or host_array.dtype != buf.dtype:
            raise GpuSimError(
                f"htod mismatch for {buf.name!r}: host {host_array.shape}:"
                f"{host_array.dtype} vs device {buf.shape}:{buf.dtype}"
            )
        fault_point("gpusim.htod", buffer=buf.name, bytes=buf.nbytes)
        with span("htod", buffer=buf.name, bytes=buf.nbytes):
            buf.data[...] = host_array
            self._count("htod_bytes", buf.nbytes)
            self._count("htod_count", 1)

    def dtoh(self, buf: DeviceBuffer) -> np.ndarray:
        """Copy device -> host (cudaMemcpyDeviceToHost); returns a host copy."""
        fault_point("gpusim.dtoh", buffer=buf.name, bytes=buf.nbytes)
        with span("dtoh", buffer=buf.name, bytes=buf.nbytes):
            out = buf.data.copy()
            self._count("dtoh_bytes", buf.nbytes)
            self._count("dtoh_count", 1)
        return out


class SharedMemory:
    """Per-block on-chip memory with a hard size budget.

    The paper's kernel keeps two things here: the preloaded candidate
    item ids and the per-thread popcount partials that the parallel
    reduction sums. Exceeding 16 KiB on a T10 would fail the launch;
    the simulator enforces the same limit at allocation time.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 0:
            raise GpuSimError("shared memory capacity must be >= 0")
        self.capacity_bytes = capacity_bytes
        self._in_use = 0
        self._arrays: Dict[str, np.ndarray] = {}

    def alloc(self, name: str, shape, dtype) -> np.ndarray:
        """Allocate a named shared array visible to every thread in a block."""
        if name in self._arrays:
            raise GpuSimError(f"shared array {name!r} already allocated")
        arr = np.zeros(shape, dtype=dtype)
        if self._in_use + arr.nbytes > self.capacity_bytes:
            raise DeviceMemoryError(
                f"shared memory overflow: {name!r} needs {arr.nbytes} bytes, "
                f"{self.capacity_bytes - self._in_use} available"
            )
        self._in_use += arr.nbytes
        self._arrays[name] = arr
        return arr

    def get(self, name: str) -> np.ndarray:
        try:
            return self._arrays[name]
        except KeyError:
            raise GpuSimError(f"no shared array named {name!r}") from None

    @property
    def bytes_in_use(self) -> int:
        return self._in_use
