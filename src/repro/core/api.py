"""Public mining facade and the algorithm registry (paper Table 1).

``mine(db, min_support, algorithm=...)`` dispatches to any of the ten
implementations with a uniform signature and result type. The registry
doubles as the machine-readable form of the paper's Table 1 for the
benchmark harness, and each entry's ``accepts`` tuple is the single
source of truth for which keyword options that algorithm takes —
``mine`` validates against it and ``gpapriori algorithms`` prints it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from .config import GPAprioriConfig
from .gpapriori import gpapriori_mine
from .itemset import MiningResult
from .request import MiningRequest

__all__ = ["AlgorithmInfo", "ALGORITHMS", "mine"]


@dataclass(frozen=True)
class AlgorithmInfo:
    """Registry entry: how Table 1 describes the implementation.

    ``accepts`` names every keyword option the runner understands;
    :func:`mine` rejects anything else before dispatching, so a typo
    fails loudly instead of being silently swallowed by ``**kwargs``.
    """

    name: str
    platform: str
    layout: str
    runner: Callable[..., MiningResult]
    description: str
    accepts: Tuple[str, ...] = ("max_k",)


_GPAPRIORI_ACCEPTS: Tuple[str, ...] = (
    "max_k",
    "config",
    "device",
    "table",
    *GPAprioriConfig.__dataclass_fields__,
)


def _lazy(module: str, fn: str) -> Callable[..., MiningResult]:
    def run(db, min_support, **kwargs) -> MiningResult:
        import importlib

        mod = importlib.import_module(module)
        return getattr(mod, fn)(db, min_support, **kwargs)

    return run


ALGORITHMS: Dict[str, AlgorithmInfo] = {
    "gpapriori": AlgorithmInfo(
        name="GPApriori",
        platform="Single thread GPU + single thread CPU",
        layout="static bitset (vertical)",
        runner=gpapriori_mine,
        description="The paper's contribution: trie candidates, complete "
        "intersection of 64-byte-aligned bitsets on the (simulated) GPU.",
        accepts=_GPAPRIORI_ACCEPTS,
    ),
    "cpu_bitset": AlgorithmInfo(
        name="CPU_TEST",
        platform="Single thread CPU",
        layout="static bitset (vertical)",
        runner=_lazy("repro.baselines.cpu_bitset", "cpu_bitset_mine"),
        description="The same bitset algorithm executed on the CPU; the "
        "GPApriori/CPU_TEST ratio isolates the GPU's contribution.",
    ),
    "borgelt": AlgorithmInfo(
        name="Borgelt Apriori",
        platform="Single thread CPU",
        layout="tidset (vertical)",
        runner=_lazy("repro.baselines.borgelt", "borgelt_mine"),
        description="Level-wise Apriori over materialized tidsets with "
        "merge intersections (FIMI 2003 style).",
    ),
    "bodon": AlgorithmInfo(
        name="Bodon Apriori",
        platform="Single thread CPU",
        layout="trie over horizontal data",
        runner=_lazy("repro.baselines.bodon", "bodon_mine"),
        description="Trie candidates with hash fan-out counted by routing "
        "horizontal transactions through the trie (OSDM 2005 style).",
    ),
    "goethals": AlgorithmInfo(
        name="Gothel Apriori",
        platform="Single thread CPU",
        layout="horizontal",
        runner=_lazy("repro.baselines.goethals", "goethals_mine"),
        description="Agrawal's original horizontal algorithm: flat candidate "
        "lists with per-transaction subset tests.",
    ),
    "eclat": AlgorithmInfo(
        name="Eclat",
        platform="Single thread CPU",
        layout="tidset (vertical)",
        runner=_lazy("repro.baselines.eclat", "eclat_mine"),
        description="Depth-first equivalence-class mining over tidsets "
        "(KDD 1997), with the diffset variant via diffsets=True.",
        accepts=("max_k", "diffsets"),
    ),
    "fpgrowth": AlgorithmInfo(
        name="FP-Growth",
        platform="Single thread CPU",
        layout="FP-tree",
        runner=_lazy("repro.baselines.fpgrowth", "fpgrowth_mine"),
        description="Pattern growth without candidate generation "
        "(SIGMOD 2000); the related-work reference point.",
    ),
    # ---- Section VI future-work extensions, implemented here ----------
    "hybrid": AlgorithmInfo(
        name="Hybrid CPU+GPU",
        platform="Single thread GPU + single thread CPU, concurrent",
        layout="static bitset (vertical)",
        runner=_lazy("repro.core.balance", "hybrid_mine"),
        description="The paper's future-work load-balanced CPU/GPU "
        "model: each generation's candidates split so modeled finish "
        "times equalize.",
        accepts=("max_k", "balancer", "config", "device"),
    ),
    "gpu_eclat": AlgorithmInfo(
        name="GPU Eclat",
        platform="Single thread GPU + single thread CPU",
        layout="static bitset (vertical), depth-first",
        runner=_lazy("repro.core.gpu_eclat", "gpu_eclat_mine"),
        description="The paper's future-work Eclat-on-GPU: equivalence-"
        "class DFS where each class is one extend-kernel batch.",
        accepts=("max_k", "config", "device"),
    ),
    "partition": AlgorithmInfo(
        name="Partition",
        platform="Single thread CPU",
        layout="static bitset (vertical), two-phase",
        runner=_lazy("repro.baselines.partition", "partition_mine"),
        description="Savasere et al.'s two-scan Partition algorithm "
        "(VLDB 1995, from the paper's references): local mining per "
        "chunk, one exact global counting pass.",
        accepts=("max_k", "n_partitions"),
    ),
}


def mine(db, min_support, algorithm: str = "gpapriori", **kwargs) -> MiningResult:
    """Mine frequent itemsets with the named algorithm.

    Parameters
    ----------
    db:
        A :class:`~repro.datasets.transaction_db.TransactionDatabase`.
    min_support:
        Fractional support ratio in (0, 1] or absolute count >= 1.
    algorithm:
        Registry key: ``gpapriori``, ``cpu_bitset``, ``borgelt``,
        ``bodon``, ``goethals``, ``eclat``, ``fpgrowth``, ``hybrid``,
        ``gpu_eclat`` or ``partition``.
    **kwargs:
        Per-algorithm options, checked against the registry entry's
        ``accepts`` tuple: ``max_k`` (an int >= 1) everywhere;
        ``faults=`` (a seeded :class:`~repro.faults.FaultPlan`)
        everywhere — the plan is activated around the run regardless
        of algorithm; GPApriori's ``config=`` or individual config
        fields (``engine=``, ``shards=``, ``memory_budget_bytes=``,
        ...), never both, plus ``table=`` for a pre-built (pinned)
        generation-1 table, a bitset matrix or a hybrid layout,
        installed as given; Eclat's ``diffsets=True``;
        Partition's ``n_partitions=``; ``balancer=``/``config=``/
        ``device=`` for the hybrid and GPU-Eclat extensions. An option
        the algorithm does not accept raises
        :class:`~repro.errors.MiningError` naming it.

    Examples
    --------
    >>> from repro.datasets import TransactionDatabase
    >>> db = TransactionDatabase([[0, 1, 2], [0, 1], [0, 2], [1, 2]])
    >>> result = mine(db, min_support=0.5)
    >>> result.support_of((0, 1))
    2

    Results round-trip through the shared dict serializer — the same
    encoding the ``--json`` CLI mode, the result cache, and the HTTP
    endpoint emit — preserving itemsets, supports, and run attributes:

    >>> from repro.core.itemset import MiningResult
    >>> doc = result.to_dict()
    >>> restored = MiningResult.from_dict(doc)
    >>> restored.same_itemsets(result)
    True
    >>> (restored.min_support, restored.n_transactions, restored.metrics.algorithm)
    (2, 4, 'gpapriori')
    >>> mine(db, 0.5, algorithm="borgelt", diffsets=True)
    Traceback (most recent call last):
        ...
    repro.errors.MiningError: unknown option 'diffsets' for algorithm 'borgelt'; it accepts: max_k
    >>> mine(db, 0.5, algorithm="apriori")
    Traceback (most recent call last):
        ...
    repro.errors.MiningError: unknown algorithm 'apriori'; choose from ['bodon', 'borgelt', 'cpu_bitset', 'eclat', 'fpgrowth', 'goethals', 'gpapriori', 'gpu_eclat', 'hybrid', 'partition']
    """
    # One canonical validation path: ``mine()`` kwargs, service
    # queries, and the HTTP body all become a MiningRequest first.
    request = MiningRequest.build(min_support, algorithm=algorithm, options=kwargs)
    return request.execute(db)
