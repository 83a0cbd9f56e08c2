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

from ._lazy import lazy_exports

__version__ = "1.0.0"

_EXPORTS, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".core.api": ("mine", "ALGORITHMS"),
        ".core.config": ("GPAprioriConfig",),
        ".core.sharding": ("ShardPlan",),
        ".core.partitioned": ("ShardedEngine", "FleetEngine"),
        ".core.gpapriori": ("gpapriori_mine",),
        ".core.gpu_eclat": ("gpu_eclat_mine",),
        ".core.balance": ("hybrid_mine", "StaticBalancer", "ModelBalancer"),
        ".core.itemset": ("Itemset", "MiningResult", "RunMetrics"),
        ".faults.plan": ("FaultPlan", "FaultSpec", "parse_fault_spec"),
        ".errors": ("ReproError",),
    },
)
__all__ = [*_EXPORTS, "__version__"]
