"""GPApriori reproduction: GPU-accelerated frequent itemset mining.

A complete, self-contained reproduction of *GPApriori: GPU-Accelerated
Frequent Itemset Mining* (Zhang, Zhang & Bakos, IEEE CLUSTER 2011),
including the CUDA-like SIMT simulator standing in for the Tesla T10,
the static-bitset data structures, the candidate trie, all five Table 1
algorithms plus Eclat/diffsets and FP-Growth, synthetic analogs of the
four Table 2 datasets, association-rule generation, and the benchmark
harness regenerating every figure and table in the evaluation.

Quick start::

    from repro import mine
    from repro.datasets import dataset_analog

    db = dataset_analog("chess", scale=0.1)
    result = mine(db, min_support=0.9, algorithm="gpapriori")
    for itemset in result:
        print(itemset.items, itemset.support)

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for
the paper-versus-measured comparison of every experiment.
"""

from .core.api import ALGORITHMS, mine
from .core.config import GPAprioriConfig
from .core.gpapriori import gpapriori_mine
from .core.fleet import FleetEngine, FleetPlan
from .core.sharding import ShardPlan, ShardedEngine
from .core.gpu_eclat import gpu_eclat_mine
from .core.balance import ModelBalancer, StaticBalancer, hybrid_mine
from .core.itemset import Itemset, MiningResult, RunMetrics
from .errors import ReproError
from .faults import FaultPlan, FaultSpec, parse_fault_spec

__version__ = "1.0.0"

__all__ = [
    "mine",
    "ALGORITHMS",
    "GPAprioriConfig",
    "ShardPlan",
    "ShardedEngine",
    "FleetEngine",
    "FleetPlan",
    "gpapriori_mine",
    "gpu_eclat_mine",
    "hybrid_mine",
    "StaticBalancer",
    "ModelBalancer",
    "Itemset",
    "MiningResult",
    "RunMetrics",
    "FaultPlan",
    "FaultSpec",
    "parse_fault_spec",
    "ReproError",
    "__version__",
]
