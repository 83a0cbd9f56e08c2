"""GPU Eclat: bitset equivalence-class DFS (Section VI future work).

"Future work on the research includes how to parallelize other FIM
algorithm[s] such as FPGrowth and Eclat on GPU."

Eclat maps onto the GPApriori machinery almost for free: an equivalence
class (all frequent extensions of one prefix) is exactly one batch of
the *extend kernel* — every block ANDs the cached prefix row with one
sibling row and popcounts. The DFS order means the device only ever
holds one root-to-leaf chain of class rows, a much smaller residency
than the level-wise equivalence plan's whole-generation cache.

Execution is vectorized NumPy (bit-identical to the kernel arithmetic,
as established by the engine equivalence tests); the modeled cost
charges one extend-kernel launch per class batch, which makes the
launch-overhead sensitivity of *deep, narrow* searches visible — the
honest downside of DFS on a launch-cost device, and the reason the
paper's level-wise design batches whole generations.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from .._validation import check_query
from ..bitset.bitset import BitsetMatrix
from ..bitset.ops import row_supports
from ..errors import MiningError
from ..gpusim.device import TESLA_T10, DeviceProperties
from ..gpusim.perfmodel import GpuCostModel
from ..obs import mining_run, span
from .config import GPAprioriConfig
from .itemset import MiningResult, RunMetrics
from .support import price_batch

__all__ = ["gpu_eclat_mine"]


def gpu_eclat_mine(
    db,
    min_support,
    config: GPAprioriConfig | None = None,
    device: DeviceProperties = TESLA_T10,
    max_k: int | None = None,
) -> MiningResult:
    """Mine frequent itemsets depth-first over device-resident bitsets.

    Returns the same itemsets as every other miner in the package
    (asserted by tests); the metrics record per-class kernel launches
    and the peak modeled device residency of the DFS chain.
    """
    config = config or GPAprioriConfig()
    min_count = check_query(min_support, db.n_transactions, max_k, MiningError)

    metrics = RunMetrics(algorithm="gpu_eclat")
    model = GpuCostModel(device)
    with mining_run("gpu_eclat", metrics):

        with span("transpose", aligned=config.aligned):
            matrix = BitsetMatrix.from_database(db, aligned=config.aligned)
        n_words = matrix.n_words
        metrics.add_modeled("htod_bitsets", model.transfer_time(matrix.nbytes).seconds)

        found: Dict[Tuple[int, ...], int] = {}
        supports1 = matrix.supports()
        metrics.generations.append(db.n_items)
        frequent_items = [
            int(i) for i in np.nonzero(supports1 >= min_count)[0]
        ]
        for i in frequent_items:
            found[(i,)] = int(supports1[i])

        launches = 0
        peak_chain_bytes = 0

        def extend_class(
            prefix: Tuple[int, ...],
            rows: np.ndarray,
            items: List[int],
            supports: np.ndarray,
            depth: int,
            chain_bytes: int,
        ) -> None:
            """Extend every member of one equivalence class by its right
            siblings; recurse into surviving sub-classes."""
            nonlocal launches, peak_chain_bytes
            if max_k is not None and depth >= max_k:
                return
            for idx in range(len(items)):
                n_pairs = len(items) - idx - 1
                if n_pairs <= 0:
                    continue
                # one extend-kernel batch: block b ANDs rows[idx] & rows[idx+1+b]
                new_rows = rows[idx] & rows[idx + 1 :]
                new_supports = row_supports(new_rows)
                launches += 1
                price = price_batch("extend", n_pairs, 2, n_words, model, config)
                metrics.add_modeled("kernel", price.kernel)
                metrics.add_counter("bitset_words_anded", price.dense_entries * n_words)
                keep = new_supports >= min_count
                if not keep.any():
                    continue
                sub_items = [items[idx + 1 + j] for j in np.nonzero(keep)[0]]
                sub_rows = new_rows[keep]
                sub_supports = new_supports[keep]
                new_prefix = prefix + (items[idx],)
                for item, support in zip(sub_items, sub_supports):
                    found[new_prefix + (item,)] = int(support)
                next_chain = chain_bytes + sub_rows.nbytes
                peak_chain_bytes = max(peak_chain_bytes, next_chain)
                extend_class(
                    new_prefix, sub_rows, sub_items, sub_supports, depth + 1, next_chain
                )

        if frequent_items:
            with span("dfs", roots=len(frequent_items)) as sp:
                root_rows = matrix.words[frequent_items]
                extend_class(
                    (),
                    root_rows,
                    frequent_items,
                    supports1[frequent_items],
                    1,
                    int(root_rows.nbytes),
                )
                sp.set(kernel_launches=launches, peak_chain_bytes=peak_chain_bytes)

        metrics.add_counter("kernel_launches", launches)
        metrics.add_counter("peak_chain_bytes", peak_chain_bytes)
    return MiningResult(found, db.n_transactions, min_count, metrics)
