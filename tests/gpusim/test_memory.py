"""Unit tests for simulated device memory."""

import numpy as np
import pytest

from repro.errors import DeviceMemoryError, GpuSimError
from repro.gpusim import GlobalMemory, SharedMemory
from repro.obs import MetricsRegistry


class TestGlobalMemory:
    def test_alloc_and_transfer_roundtrip(self):
        mem = GlobalMemory(1 << 20)
        buf = mem.alloc("x", (10,), np.uint32)
        host = np.arange(10, dtype=np.uint32)
        mem.htod(buf, host)
        assert np.array_equal(mem.dtoh(buf), host)

    def test_alloc_zero_initialized(self):
        mem = GlobalMemory(1 << 20)
        buf = mem.alloc("x", (5, 5), np.int64)
        assert int(buf.data.sum()) == 0

    def test_int_shape(self):
        mem = GlobalMemory(1 << 20)
        buf = mem.alloc("x", 7, np.uint8)
        assert buf.shape == (7,)

    def test_oom(self):
        mem = GlobalMemory(1024)
        with pytest.raises(DeviceMemoryError, match="OOM"):
            mem.alloc("big", (1 << 20,), np.uint32)

    def test_oom_cumulative(self):
        mem = GlobalMemory(1024)
        mem.alloc("a", (128,), np.uint32)  # 512 bytes
        mem.alloc("b", (100,), np.uint32)  # 400 bytes
        with pytest.raises(DeviceMemoryError):
            mem.alloc("c", (128,), np.uint32)

    def test_free_returns_capacity(self):
        mem = GlobalMemory(1024)
        a = mem.alloc("a", (200,), np.uint32)
        mem.free(a)
        assert mem.bytes_in_use == 0
        mem.alloc("b", (200,), np.uint32)  # fits again

    def test_use_after_free(self):
        mem = GlobalMemory(1024)
        a = mem.alloc("a", (4,), np.uint32)
        mem.free(a)
        with pytest.raises(DeviceMemoryError, match="use-after-free"):
            _ = a.data

    def test_double_free(self):
        mem = GlobalMemory(1024)
        a = mem.alloc("a", (4,), np.uint32)
        mem.free(a)
        with pytest.raises(DeviceMemoryError, match="double free"):
            mem.free(a)

    def test_addresses_aligned_and_disjoint(self):
        mem = GlobalMemory(1 << 20, alignment=256)
        a = mem.alloc("a", (3,), np.uint32)
        b = mem.alloc("b", (3,), np.uint32)
        assert a.addr % 256 == 0 and b.addr % 256 == 0
        assert b.addr >= a.addr + 256

    def test_byte_address(self):
        mem = GlobalMemory(1 << 20)
        a = mem.alloc("a", (8,), np.uint32)
        assert a.byte_address(3) == a.addr + 12

    def test_htod_shape_mismatch(self):
        mem = GlobalMemory(1 << 20)
        a = mem.alloc("a", (4,), np.uint32)
        with pytest.raises(GpuSimError, match="mismatch"):
            mem.htod(a, np.zeros(5, dtype=np.uint32))

    def test_htod_dtype_mismatch(self):
        mem = GlobalMemory(1 << 20)
        a = mem.alloc("a", (4,), np.uint32)
        with pytest.raises(GpuSimError):
            mem.htod(a, np.zeros(4, dtype=np.int32))

    def test_transfer_stats(self):
        """Every hop adds to the registry's transfer.* counters at once."""
        registry = MetricsRegistry()
        mem = GlobalMemory(1 << 20, registry=registry)
        a = mem.alloc("a", (4,), np.uint32)
        mem.htod(a, np.zeros(4, dtype=np.uint32))
        assert registry.counter("transfer.htod_count") == 1
        assert registry.counter("transfer.htod_bytes") == 16
        mem.dtoh(a)
        mem.dtoh(a)
        assert registry.counters == {
            "transfer.htod_bytes": 16,
            "transfer.htod_count": 1,
            "transfer.dtoh_bytes": 32,
            "transfer.dtoh_count": 2,
            "transfer.alloc_bytes": 16,
        }
        # standalone, the allocator counts into a registry of its own
        solo = GlobalMemory(1 << 20)
        solo.htod(solo.alloc("a", (4,), np.uint32), np.zeros(4, dtype=np.uint32))
        assert solo.registry.counter("transfer.htod_bytes") == 16

    def test_peak_tracking(self):
        mem = GlobalMemory(1 << 20)
        a = mem.alloc("a", (100,), np.uint32)
        mem.free(a)
        mem.alloc("b", (10,), np.uint32)
        assert mem.peak_bytes == 400
        assert mem.bytes_in_use == 40

    def test_dtoh_returns_copy(self):
        mem = GlobalMemory(1 << 20)
        a = mem.alloc("a", (4,), np.uint32)
        out = mem.dtoh(a)
        out[0] = 99
        assert int(a.data[0]) == 0

    def test_invalid_capacity(self):
        with pytest.raises(GpuSimError):
            GlobalMemory(0)

    def test_invalid_alignment(self):
        with pytest.raises(GpuSimError):
            GlobalMemory(1024, alignment=3)

    def test_negative_shape(self):
        mem = GlobalMemory(1024)
        with pytest.raises(GpuSimError):
            mem.alloc("a", (-1,), np.uint32)


class TestSharedMemory:
    def test_alloc_and_get(self):
        sh = SharedMemory(1024)
        arr = sh.alloc("p", 16, np.int64)
        assert arr.shape == (16,)
        assert sh.get("p") is arr

    def test_budget_enforced(self):
        """The T10's 16 KiB shared-memory limit must reject overflow."""
        sh = SharedMemory(16 * 1024)
        sh.alloc("a", 2048, np.int64)  # 16 KiB exactly
        with pytest.raises(DeviceMemoryError, match="overflow"):
            sh.alloc("b", 1, np.int64)

    def test_duplicate_name(self):
        sh = SharedMemory(1024)
        sh.alloc("a", 4, np.int32)
        with pytest.raises(GpuSimError, match="already"):
            sh.alloc("a", 4, np.int32)

    def test_missing_name(self):
        sh = SharedMemory(1024)
        with pytest.raises(GpuSimError, match="no shared array"):
            sh.get("nope")

    def test_bytes_in_use(self):
        sh = SharedMemory(1024)
        sh.alloc("a", 10, np.int32)
        assert sh.bytes_in_use == 40
