"""CPU_TEST: the GPApriori algorithm executed on the CPU.

The paper's Table 1 includes "CPU_TEST — single thread CPU", the
equivalent CPU code whose ratio to GPApriori isolates the GPU's
contribution (10x on chess, 50-80x on accidents). This module is that
equivalent: the same level-wise driver and candidate generation,
identical static bitset layout, identical complete-intersection
counting — with the operation counts priced by the *CPU* cost model
instead of the GPU one.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_query
from ..bitset.bitset import BitsetMatrix
from ..bitset.ops import support_many
from ..errors import MiningError
from ..gpusim.perfmodel import CpuCostModel
from ..obs import mining_run, span
from ..core.itemset import MiningResult, RunMetrics
from ..core.levelwise import levelwise

__all__ = ["cpu_bitset_mine"]


def cpu_bitset_mine(db, min_support, max_k: int | None = None) -> MiningResult:
    """Mine frequent itemsets with bitset Apriori on the CPU.

    See :func:`repro.core.gpapriori.gpapriori_mine` for the shared
    algorithm; this entry point differs only in cost attribution.
    """
    min_count = check_query(min_support, db.n_transactions, max_k, MiningError)
    metrics = RunMetrics(algorithm="cpu_bitset")
    cost = CpuCostModel()

    with mining_run("cpu_bitset", metrics):
        with span("transpose"):
            matrix = BitsetMatrix.from_database(db, aligned=True)
        n_words = matrix.n_words

        def count(cands: np.ndarray, parents) -> np.ndarray:
            with span("count", candidates=int(cands.shape[0]), k=int(cands.shape[1])):
                supports = support_many(matrix, cands)
                words = int(cands.shape[0]) * int(cands.shape[1]) * n_words
                metrics.add_counter("bitset_words_anded", words)
                metrics.add_counter("candidates_counted", int(cands.shape[0]))
                metrics.add_modeled("cpu_bitset", cost.bitset_time(words))
            return supports

        levels = levelwise(db.n_items, min_count, count, metrics, max_k)

    return MiningResult.from_levels(levels, db.n_transactions, min_count, metrics)
