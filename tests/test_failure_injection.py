"""Failure injection: every layer must fail loudly, never silently.

A systems library's error paths are part of its contract. This suite
drives malformed inputs and misuse patterns through each subsystem and
asserts the specific exception type and a useful message — silent
wrong answers are the bug class these tests exist to prevent.
"""

import io

import numpy as np
import pytest

from repro import GPAprioriConfig, mine
from repro.bitset import BitsetMatrix
from repro.core.itemset import RunMetrics
from repro.core.support import SimulatedEngine, VectorizedEngine
from repro.datasets import TransactionDatabase, read_fimi
from repro.errors import (
    BitsetError,
    ConfigError,
    DatasetError,
    DeviceMemoryError,
    GpuSimError,
    KernelLaunchError,
    MiningError,
    ReproError,
)
from repro.faults import FaultPlan, FaultSpec
from repro.gpusim import SYNCTHREADS, GlobalMemory, TESLA_T10, launch_kernel
from repro.gpusim.kernel import LaunchConfig


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            DatasetError,
            BitsetError,
            MiningError,
            ConfigError,
            GpuSimError,
            KernelLaunchError,
            DeviceMemoryError,
        ],
    )
    def test_all_catchable_as_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_gpusim_subtypes(self):
        assert issubclass(KernelLaunchError, GpuSimError)
        assert issubclass(DeviceMemoryError, GpuSimError)


class TestCorruptedInputs:
    def test_fimi_garbage_line_number_reported(self):
        with pytest.raises(DatasetError, match="line 3"):
            read_fimi(io.StringIO("1 2\n3\n4 x\n"))

    def test_ragged_item_universe(self):
        with pytest.raises(DatasetError):
            TransactionDatabase([[0, 5]], n_items=3)

    def test_float_items_rejected_by_dedup(self):
        # floats truncate silently in naive code; unique+cast must not
        db = TransactionDatabase([[1.0, 2.0]])
        assert db[0].tolist() == [1, 2]  # ints accepted via exact cast

    def test_mining_on_foreign_object(self):
        class NotADatabase:
            n_transactions = 5

        with pytest.raises((AttributeError, TypeError, ReproError)):
            mine(NotADatabase(), 2)


class TestEngineMisuse:
    def test_vectorized_count_without_setup(self):
        eng = VectorizedEngine(GPAprioriConfig(), RunMetrics())
        with pytest.raises(MiningError, match="setup"):
            eng.count_complete(np.array([[0]]))

    def test_double_retain(self, paper_db):
        eng = VectorizedEngine(GPAprioriConfig(), RunMetrics())
        eng.setup(BitsetMatrix.from_database(paper_db))
        eng.count_extend(np.array([[1, 2]]))
        eng.retain(np.array([0]))
        with pytest.raises(MiningError, match="retain"):
            eng.retain(np.array([0]))

    def test_candidate_out_of_universe(self, paper_db):
        eng = VectorizedEngine(GPAprioriConfig(), RunMetrics())
        eng.setup(BitsetMatrix.from_database(paper_db))
        with pytest.raises(BitsetError):
            eng.count_complete(np.array([[0, 99]]))

    def test_simulated_bitsets_exceed_device_memory(self, small_db):
        from repro.gpusim.device import DeviceProperties

        nano = DeviceProperties(
            name="nano",
            sm_count=1,
            cores_per_sm=8,
            clock_hz=1e9,
            global_mem_bytes=256,  # smaller than any bitset table
            mem_bandwidth_bytes=1e9,
            shared_mem_per_block=16 << 10,
            max_threads_per_block=512,
            warp_size=32,
            compute_capability=(1, 3),
            pcie_bandwidth_bytes=1e9,
            pcie_latency_s=1e-6,
            kernel_launch_overhead_s=1e-6,
        )
        eng = SimulatedEngine(GPAprioriConfig(engine="simulated"), RunMetrics(), nano)
        with pytest.raises(DeviceMemoryError, match="OOM"):
            eng.setup(BitsetMatrix.from_database(small_db))


class TestKernelMisuse:
    def test_infinite_barrier_mismatch(self):
        """Threads reaching different barrier *counts* must be caught."""

        def kernel(ctx):
            yield SYNCTHREADS
            if ctx.thread_idx == 0:
                yield SYNCTHREADS

        with pytest.raises(KernelLaunchError, match="divergent"):
            launch_kernel(kernel, LaunchConfig(1, 2))

    def test_buffer_escape_detection(self):
        """Out-of-bounds indexing must raise, not wrap around."""
        mem = GlobalMemory(TESLA_T10.global_mem_bytes)
        buf = mem.alloc("b", (4,), np.uint32)

        def kernel(ctx, buf):
            ctx.store(buf, -1, 7)
            return
            yield

        with pytest.raises(GpuSimError, match="out of range"):
            launch_kernel(kernel, LaunchConfig(1, 1), args=(buf,))

    def test_kernel_exception_propagates(self):
        def kernel(ctx):
            raise ValueError("device-side assert")
            yield

        with pytest.raises(ValueError, match="device-side assert"):
            launch_kernel(kernel, LaunchConfig(1, 1))

    def test_non_generator_kernel_rejected(self):
        def kernel(ctx):
            return 42  # not a generator function

        with pytest.raises(TypeError):
            launch_kernel(kernel, LaunchConfig(1, 1))


class TestInjectedFaults:
    """The fault harness drives the same loud-failure contract on demand."""

    def test_injected_oom_surfaces_typed_error(self, small_db):
        plan = FaultPlan(
            specs=(FaultSpec(site="gpusim.alloc", kind="device_oom", on_nth=1),)
        )
        with pytest.raises(DeviceMemoryError, match="injected device OOM"):
            mine(small_db, 8, engine="simulated", faults=plan)

    def test_injected_launch_failure_surfaces_typed_error(self, small_db):
        plan = FaultPlan(
            specs=(FaultSpec(site="gpusim.launch", kind="launch_error", on_nth=1),)
        )
        with pytest.raises(KernelLaunchError, match="injected launch failure"):
            mine(small_db, 8, engine="simulated", faults=plan)

    def test_injected_transfer_error_surfaces_typed_error(self, small_db):
        plan = FaultPlan(
            specs=(FaultSpec(site="gpusim.htod", kind="transfer_error", on_nth=1),)
        )
        with pytest.raises(GpuSimError, match="injected transfer error"):
            mine(small_db, 8, engine="simulated", faults=plan)

    def test_plan_alongside_config_object(self, small_db):
        plan = FaultPlan(
            specs=(FaultSpec(site="gpusim.dtoh", kind="transfer_error", on_nth=1),)
        )
        with pytest.raises(GpuSimError, match="injected"):
            mine(small_db, 8, config=GPAprioriConfig(engine="simulated"), faults=plan)

    def test_unvisited_site_leaves_result_untouched(self, small_db):
        # vectorized counting never touches simulator memory, so a
        # gpusim fault plan must be inert there
        plan = FaultPlan(
            specs=(FaultSpec(site="gpusim.alloc", kind="device_oom", on_nth=1),)
        )
        clean = mine(small_db, 8)
        chaotic = mine(small_db, 8, faults=plan)
        assert chaotic.as_dict() == clean.as_dict()

    def test_faults_kwarg_type_checked(self, small_db):
        with pytest.raises(MiningError, match="faults"):
            mine(small_db, 8, faults="gpusim.alloc:device_oom")


class TestConfigMisuse:
    def test_conflicting_engine_kwarg(self, small_db):
        with pytest.raises(ConfigError):
            mine(small_db, 8, algorithm="gpapriori", engine="tpu")

    def test_unknown_kwarg_surfaces(self, small_db):
        with pytest.raises(MiningError, match="unknown option 'warp_speed'"):
            mine(small_db, 8, algorithm="gpapriori", warp_speed=9)

    def test_min_support_nan(self, small_db):
        with pytest.raises(MiningError):
            mine(small_db, float("nan"))

    def test_min_support_negative_float(self, small_db):
        with pytest.raises(MiningError):
            mine(small_db, -0.5)
