"""Goethals-style Apriori: Agrawal's horizontal algorithm.

The paper attributes Goethals' implementation to "Agrawal's algorithm"
with the **horizontal** representation — and only plots it on
T40I10D100K "because it performs very slowly on the other three
datasets". The reproduced strategy is the VLDB'94 original: candidates
in a flat level list; each database pass checks, for every transaction,
which candidates it contains by a per-candidate subset test.

Two execution details:

* The subset tests are evaluated with a vectorized membership check so
  the *Python wall-clock* stays usable on benchmark sweeps; the
  algorithmic strategy (flat candidate list x full database scan per
  generation, no trie short-circuiting) is unchanged.
* The cost counter charges the classical two-pointer merge bound of
  ``k + |transaction|`` item touches per candidate containment test
  (transactions shorter than ``k`` are skipped outright). This is the
  documented upper bound of the element-at-a-time scan the original
  performs — and the linear-in-candidates blow-up it implies is exactly
  why this baseline collapses on dense data.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_query
from ..core.itemset import MiningResult, RunMetrics
from ..core.levelwise import levelwise
from ..errors import MiningError
from ..gpusim.perfmodel import CpuCostModel
from ..obs import mining_run, span

__all__ = ["goethals_mine"]


def goethals_mine(db, min_support, max_k: int | None = None) -> MiningResult:
    """Mine frequent itemsets with flat-list horizontal Apriori."""
    min_count = check_query(min_support, db.n_transactions, max_k, MiningError)
    metrics = RunMetrics(algorithm="goethals")
    cost = CpuCostModel()

    with mining_run("goethals", metrics):
        items_touched = int(db.items_flat.size)

        def count(candidates: np.ndarray, parents) -> np.ndarray:
            nonlocal items_touched
            n, k = candidates.shape
            if k == 1:
                return db.item_supports()
            with span("count", candidates=n, k=k):
                counts = np.zeros(n, dtype=np.int64)
                for row in db:
                    if row.size < k:
                        continue
                    # flat-list subset tests over every candidate (no trie):
                    counts += np.isin(candidates, row).all(axis=1)
                    items_touched += n * (k + int(row.size))
            metrics.add_counter("candidates_counted", n)
            return counts

        levels = levelwise(db.n_items, min_count, count, metrics, max_k)
        metrics.add_counter("items_scanned", items_touched)
        metrics.add_modeled("cpu_scan", cost.scan_time(items_touched))

    return MiningResult.from_levels(levels, db.n_transactions, min_count, metrics)
