"""Bodon-style Apriori: trie candidates counted over horizontal data.

Bodon's implementation (OSDM 2005, ref. [6]) keeps candidates in a trie
with hashed fan-out and counts a generation by routing every horizontal
transaction through the trie — the "considerable binary searches and
trie traversal" the paper cites as the irregular-memory-access workload
that motivates the bitset redesign for GPUs.

Per-generation cost = trie node hops + hash-bucket probes + transaction
items touched, each priced by the CPU cost model.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_query
from ..errors import MiningError
from ..gpusim.perfmodel import CpuCostModel
from ..obs import mining_run, span
from ..trie.hashtrie import HashTrie, HashTrieCounters
from ..core.itemset import MiningResult, RunMetrics
from ..core.levelwise import levelwise

__all__ = ["bodon_mine"]


def bodon_mine(db, min_support, max_k: int | None = None) -> MiningResult:
    """Mine frequent itemsets with trie-based horizontal Apriori."""
    min_count = check_query(min_support, db.n_transactions, max_k, MiningError)
    metrics = RunMetrics(algorithm="bodon")
    cost = CpuCostModel()

    with mining_run("bodon", metrics):
        def count(cands: np.ndarray, parents) -> np.ndarray:
            if parents is None:
                # Generation 1: one vectorized scan (Bodon counts items in an array).
                scanned = int(db.items_flat.size)
                metrics.add_counter("items_scanned", scanned)
                metrics.add_modeled("cpu_scan", cost.scan_time(scanned))
                return db.item_supports()
            with span("count", candidates=int(cands.shape[0]), k=int(cands.shape[1])):
                counter_trie = HashTrie(map(tuple, cands.tolist()))
                counters = HashTrieCounters()
                counter_trie.count_database(db, counters)
                metrics.add_counter("trie_node_visits", counters.node_visits)
                metrics.add_counter("hash_probes", counters.hash_probes)
                metrics.add_counter("items_scanned", counters.items_touched)
                metrics.add_counter("candidates_counted", int(cands.shape[0]))
                metrics.add_modeled("cpu_trie", cost.trie_time(counters.node_visits))
                metrics.add_modeled("cpu_hash", cost.hash_time(counters.hash_probes))
            # HashTrie reports in lexicographic order, the candidates' order.
            return np.array([c for _, c in counter_trie.supports()], dtype=np.int64)

        levels = levelwise(db.n_items, min_count, count, metrics, max_k)

    return MiningResult.from_levels(levels, db.n_transactions, min_count, metrics)
