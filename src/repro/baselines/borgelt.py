"""Borgelt-style Apriori: level-wise mining over vertical tidsets.

The paper describes Borgelt's implementation (FIMI 2003, ref. [7]) as a
"state-of-the-art" CPU Apriori using the vertical tidset layout with
recursion pruning. The strategy reproduced here:

* candidates come from the shared level-wise driver and its
  leaf/sibling join (identical to GPApriori — the *counting* differs);
* each frequent itemset carries its materialized tidset; a candidate's
  tidset is the intersection of its (k-1)-prefix tidset with the added
  item's tidset, so supports come from sorted-merge intersections
  rather than database scans ("recursion pruning": the shrinking
  tidsets prune work as depth grows);
* merge cost is recorded as the elements the two-pointer walk touches,
  which the CPU cost model prices per comparison step.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .._validation import check_query
from ..bitset.tidset import TidsetTable, intersect_tidsets
from ..errors import MiningError
from ..gpusim.perfmodel import CpuCostModel
from ..obs import mining_run, span
from ..core.itemset import MiningResult, RunMetrics
from ..core.levelwise import levelwise

__all__ = ["borgelt_mine"]


def borgelt_mine(db, min_support, max_k: int | None = None) -> MiningResult:
    """Mine frequent itemsets with tidset-based level-wise Apriori."""
    min_count = check_query(min_support, db.n_transactions, max_k, MiningError)
    metrics = RunMetrics(algorithm="borgelt")
    cost = CpuCostModel()

    with mining_run("borgelt", metrics):
        with span("tidset_build"):
            table = TidsetTable.from_database(db)
        # Materialized tidsets of the current level's rows, in level order.
        tidsets: List[np.ndarray] = []
        pending: List[np.ndarray] = []

        def count(cands: np.ndarray, parents) -> np.ndarray:
            nonlocal pending
            if parents is None:
                pending = [table.tidset(item) for item in range(db.n_items)]
                scanned = sum(int(t.size) for t in pending)
                metrics.add_counter("tidset_elements_scanned", scanned)
                metrics.add_modeled("cpu_tidset", cost.tidset_time(scanned))
                return np.array([t.size for t in pending], dtype=np.int64)
            with span("count", candidates=int(cands.shape[0]), k=int(cands.shape[1])):
                pending = []
                merge_steps = 0
                for parent, item in zip(parents.tolist(), cands[:, -1].tolist()):
                    prefix_tids = tidsets[parent]
                    item_tids = table.tidset(item)
                    # A two-pointer merge inspects at most len(a)+len(b) elements.
                    merge_steps += int(prefix_tids.size + item_tids.size)
                    pending.append(intersect_tidsets(prefix_tids, item_tids))
                metrics.add_counter("tidset_merge_steps", merge_steps)
                metrics.add_counter("candidates_counted", int(cands.shape[0]))
                metrics.add_modeled("cpu_tidset", cost.tidset_time(merge_steps))
            return np.array([t.size for t in pending], dtype=np.int64)

        def retain(cands: np.ndarray, frequent: np.ndarray) -> None:
            nonlocal tidsets
            tidsets = [pending[i] for i in np.flatnonzero(frequent).tolist()]

        levels = levelwise(db.n_items, min_count, count, metrics, max_k, retain)

    return MiningResult.from_levels(levels, db.n_transactions, min_count, metrics)
