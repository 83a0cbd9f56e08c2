"""A CUDA-like SIMT simulator (the paper's Tesla T10 substitute).

The paper runs its support-counting kernel on an NVIDIA Tesla T10 GPU.
No GPU is available here, so this package provides a functional +
analytic substitute with the pieces GPApriori actually exercises:

* :mod:`~repro.gpusim.device` — device property sheets, including a
  Tesla T10 calibration (30 SMs x 8 SPs @ 1.296 GHz, 102 GB/s, 16 KiB
  shared memory per block, compute capability 1.3 coalescing rules).
* :mod:`~repro.gpusim.memory` — simulated global memory with explicit
  host-to-device / device-to-host transfers (the PCIe hops the paper's
  complete-intersection design minimizes) and per-block shared memory.
* :mod:`~repro.gpusim.kernel` — barrier-synchronous kernel execution.
  Kernels are Python generator functions; ``yield SYNCTHREADS`` is the
  barrier. Each block's threads run to the next barrier in turn, which
  preserves CUDA's intra-block synchronization semantics exactly.
* :mod:`~repro.gpusim.coalescing` — replays recorded global-memory
  access traces against the compute-1.x half-warp coalescing rules to
  count memory transactions (the mechanism behind the paper's Fig. 3).
* :mod:`~repro.gpusim.reduction` — the shared-memory parallel summation
  reduction (CUDA SDK "Data Parallel Algorithms", paper ref. [9]).
* :mod:`~repro.gpusim.perfmodel` — analytic kernel/transfer time model
  calibrated to the T10, fed by exact operation counts from real runs.

Functional fidelity is validated in the test suite by running the real
support kernel through the simulator and comparing against the
vectorized engine and a horizontal-scan oracle.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".device": ("DeviceProperties", "TESLA_T10", "XEON_E5520"),
        ".memory": ("DeviceBuffer", "GlobalMemory", "SharedMemory", "TransferStats"),
        ".kernel": (
            "SYNCTHREADS",
            "KernelContext",
            "LaunchConfig",
            "LaunchResult",
            "launch_kernel",
        ),
        ".coalescing": ("AccessTrace", "CoalescingReport", "analyze_trace"),
        ".reduction": ("block_reduce_sum",),
        ".intrinsics": ("popc",),
        ".bankconflict": ("bank_of", "conflict_degree", "reduction_conflicts"),
        ".occupancy": ("OccupancyResult", "occupancy", "best_block_size"),
        ".perfmodel": ("CpuCostModel", "GpuCostModel", "KernelCost", "TransferCost"),
        ".stats": ("KernelStats", "CoalescingStats"),
    },
)
