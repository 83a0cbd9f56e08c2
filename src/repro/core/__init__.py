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
* :mod:`~repro.core.sharding` — out-of-core tid-range sharding: a
  :class:`~repro.core.sharding.ShardPlan` sized from a device-memory
  budget and the :class:`~repro.core.sharding.ShardedEngine` that
  streams shards through any of the three engines.
* :mod:`~repro.core.gpapriori` — the host-side mining driver.
* :mod:`~repro.core.balance` — the load-balanced CPU+GPU miner
  (``algorithm="hybrid"``; unrelated to the hybrid *layout*).
* :mod:`~repro.core.api` — the ``mine()`` facade and algorithm registry.
"""

from .itemset import Itemset, MiningResult, RunMetrics
from .config import GPAprioriConfig
from .plans import CompleteIntersectionPlan, EquivalenceClassPlan, make_plan
from .support import SimulatedEngine, VectorizedEngine, make_engine
from .parallel import ParallelEngine
from .sharding import Shard, ShardPlan, ShardedEngine, slice_matrix
from .fleet import FleetEngine, FleetPlan
from .gpapriori import gpapriori_mine
from .balance import ModelBalancer, StaticBalancer, hybrid_mine
from .gpu_eclat import gpu_eclat_mine
from .api import ALGORITHMS, mine

__all__ = [
    "Itemset",
    "MiningResult",
    "RunMetrics",
    "GPAprioriConfig",
    "CompleteIntersectionPlan",
    "EquivalenceClassPlan",
    "make_plan",
    "VectorizedEngine",
    "SimulatedEngine",
    "ParallelEngine",
    "Shard",
    "ShardPlan",
    "ShardedEngine",
    "slice_matrix",
    "FleetEngine",
    "FleetPlan",
    "make_engine",
    "gpapriori_mine",
    "StaticBalancer",
    "ModelBalancer",
    "hybrid_mine",
    "gpu_eclat_mine",
    "ALGORITHMS",
    "mine",
]
