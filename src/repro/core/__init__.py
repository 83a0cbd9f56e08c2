"""GPApriori: the paper's primary contribution.

* :mod:`~repro.core.itemset` — result value types shared by every miner.
* :mod:`~repro.core.config` — kernel/algorithm tuning knobs (block size,
  candidate preloading, loop unrolling — the paper's Section IV.3
  optimizations — plus the intersection plan and execution engine).
* :mod:`~repro.core.plans` — complete-intersection versus
  equivalence-class support-counting plans (Section IV.2 trade-off).
* :mod:`~repro.core.kernels` — the CUDA-style support-counting kernel
  executed by the :mod:`repro.gpusim` simulator.
* :mod:`~repro.core.support` — two of the three interchangeable
  counting engines: ``vectorized`` (NumPy, fast) and ``simulated``
  (kernel-faithful, for validation), and ``price_batch``, the one
  modeled price of a counting batch.
* :mod:`~repro.core.parallel` — the third engine: ``parallel``, the
  vectorized arithmetic sharded over a worker-process pool reading the
  bitsets from shared memory.
* :mod:`~repro.core.sharding` — out-of-core tid-range shard plans: a
  :class:`~repro.core.sharding.ShardPlan` sized from a device-memory
  budget, and :func:`~repro.core.sharding.slice_matrix`.
* :mod:`~repro.core.partitioned` — engines of member engines whose
  supports add: :class:`~repro.core.partitioned.ShardedEngine` streams
  tid-range shards through any of the three engines, and
  :class:`~repro.core.partitioned.FleetEngine` (``engine="multigpu"``)
  splits each generation's candidates over N simulated T10s.
* :mod:`~repro.core.gpapriori` — the host-side mining driver.
* :mod:`~repro.core.balance` — the load-balanced CPU+GPU miner
  (``algorithm="hybrid"``; unrelated to the hybrid *layout*).
* :mod:`~repro.core.api` — the ``mine()`` facade and algorithm registry.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".itemset": ("Itemset", "MiningResult", "RunMetrics"),
        ".config": ("GPAprioriConfig",),
        ".plans": ("CompleteIntersectionPlan", "EquivalenceClassPlan", "make_plan"),
        ".support": ("VectorizedEngine", "SimulatedEngine", "make_engine"),
        ".parallel": ("ParallelEngine",),
        ".sharding": ("Shard", "ShardPlan", "slice_matrix"),
        ".partitioned": ("ShardedEngine", "FleetEngine"),
        ".gpapriori": ("gpapriori_mine",),
        ".balance": ("StaticBalancer", "ModelBalancer", "hybrid_mine"),
        ".gpu_eclat": ("gpu_eclat_mine",),
        ".api": ("ALGORITHMS", "mine"),
    },
)
