"""The Partition algorithm (Savasere, Omiecinski & Navathe, VLDB 1995).

Cited in the paper's reference block ("An efficient algorithm for
mining association rules in large databases"), Partition is the
classical two-scan method for databases too large to mine in memory —
the scenario GPApriori's complete-intersection design also targets
(only generation-1 bitsets resident on the device):

1. **Phase 1** — split the database into ``n_partitions`` chunks; mine
   each chunk independently at the *same support ratio* (any in-memory
   miner works; we use bitset Apriori). Every globally frequent itemset
   is locally frequent in at least one chunk (pigeonhole over ratios),
   so the union of local results is a superset of the answer.
2. **Phase 2** — one full pass counts the union's exact global
   supports (here: one batched bitset counting sweep per itemset size)
   and drops false positives.

Exactness is guaranteed by the pigeonhole argument and asserted against
the other miners in tests; the interesting metric is the **candidate
inflation** — how many phase-1 locals fail globally — which grows as
partitions shrink.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from .._validation import check_positive_int, check_query, support_count
from ..bitset.bitset import BitsetMatrix
from ..bitset.ops import support_many
from ..datasets.transaction_db import TransactionDatabase
from ..errors import MiningError
from ..obs import mining_run, span
from .cpu_bitset import cpu_bitset_mine
from ..core.itemset import MiningResult, RunMetrics

__all__ = ["partition_mine"]


def _partition(db, n_partitions: int):
    """Split into contiguous chunks (the original's page ranges)."""
    bounds = np.linspace(0, db.n_transactions, n_partitions + 1).astype(int)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi > lo:
            rows = [db[int(i)] for i in range(lo, hi)]
            yield TransactionDatabase(rows, n_items=db.n_items)


def partition_mine(
    db,
    min_support,
    n_partitions: int = 4,
    max_k: int | None = None,
) -> MiningResult:
    """Mine frequent itemsets with the two-phase Partition algorithm.

    Parameters
    ----------
    n_partitions:
        Number of chunks for phase 1. One partition degenerates to a
        single in-memory run (phase 2 then confirms, never drops).

    Notes
    -----
    ``min_support`` given as an absolute count is converted to the
    global ratio first, because Partition's correctness argument is
    stated over ratios.
    """
    check_positive_int(n_partitions, "n_partitions", MiningError)
    min_count = check_query(min_support, db.n_transactions, max_k, MiningError)
    metrics = RunMetrics(algorithm="partition")

    with mining_run("partition", metrics, partitions=n_partitions):
        n = db.n_transactions
        ratio = min_count / n if n else 1.0

        # ---- phase 1: local mining; the union of local levels, per size.
        local_rows: Dict[int, list] = {}
        with span("local_mining", partitions=n_partitions) as sp:
            for chunk in _partition(db, n_partitions):
                local_min = support_count(ratio, chunk.n_transactions)
                local = cpu_bitset_mine(chunk, local_min, max_k=max_k)
                for rows, _ in local.levels:
                    local_rows.setdefault(rows.shape[1], []).append(rows)
                metrics.add_counter("local_itemsets", len(local))
                metrics.add_modeled(
                    "cpu_phase1", local.metrics.modeled_seconds or 0.0
                )
            union = [
                np.unique(np.concatenate(local_rows[k]), axis=0) for k in sorted(local_rows)
            ]
            n_union = sum(len(cands) for cands in union)
            sp.set(union_candidates=n_union)
        metrics.add_counter("union_candidates", n_union)

        # ---- phase 2: one global counting pass over the union, per size.
        levels = []
        with span("global_count", candidates=n_union):
            matrix = BitsetMatrix.from_database(db)
            from ..gpusim.perfmodel import CpuCostModel

            cost = CpuCostModel()
            for cands in union:
                supports = support_many(matrix, cands)
                words = int(cands.size) * matrix.n_words
                metrics.add_counter("bitset_words_anded", words)
                metrics.add_modeled("cpu_phase2", cost.bitset_time(words))
                frequent = supports >= min_count
                levels.append((cands[frequent], supports[frequent]))
        metrics.add_counter(
            "false_positives", n_union - sum(len(rows) for rows, _ in levels)
        )
        metrics.generations.append(db.n_items)

    return MiningResult.from_levels(levels, n, min_count, metrics)
