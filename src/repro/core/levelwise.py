"""The level-wise Apriori driver every trie-based miner runs.

Count generation 1 (every item), then join the frequent level into the
next candidates (:func:`~repro.trie.level.join_level`), count them and
keep the frequent rows, until a generation is empty or ``max_k`` is
reached. Each level travels with its subset table, the previous level's
row of each of its rows with one item dropped: generation 1's rows all
hang from row 0, the empty set, and the join returns the candidates'
table, whose surviving rows are the next level's. The driver returns
each frequent level as found, sorted ``(n, k)`` int32 rows plus int64
supports, for :meth:`~repro.core.itemset.MiningResult.from_levels`: no
tuple or dict is built per itemset. Miners differ only in how a
candidate buffer is counted and priced, which they pass in:

* ``count(candidates, parents) -> supports``, where ``parents[i]`` is
  the previous level's row holding candidate ``i``'s prefix (the last
  column of the subset table; ``None`` in generation 1);
* optionally ``retain(candidates, frequent_mask)``, called in the
  ``prune`` span to compact per-candidate state (cached prefix rows,
  tidsets) to the survivors, which are the next level in order.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from ..obs import span
from ..trie.level import join_level
from .itemset import Level, RunMetrics

__all__ = ["levelwise"]

CountFn = Callable[[np.ndarray, Optional[np.ndarray]], np.ndarray]
RetainFn = Callable[[np.ndarray, np.ndarray], None]


def levelwise(
    n_items: int,
    min_count: int,
    count: CountFn,
    metrics: RunMetrics,
    max_k: int | None = None,
    retain: RetainFn | None = None,
) -> List[Level]:
    """Return every frequent level as ``(rows, supports)``, in increasing size.

    Emits a ``generation`` span per generation, with ``candidate_gen``
    (from generation 2) and ``prune`` inside, and appends each counted
    generation's size to ``metrics.generations``.
    """
    levels: List[Level] = []

    def keep(k: int, candidates, subsets, gen_sp):
        metrics.generations.append(int(candidates.shape[0]))
        parents = subsets[:, -1] if k > 1 else None
        supports = np.asarray(count(candidates, parents))
        frequent = supports >= min_count
        with span("prune", k=k):
            # np.compress copies whole rows; a boolean index is several
            # times slower on (n, k) arrays
            level = np.compress(frequent, candidates, axis=0)
            levels.append((level, supports[frequent]))
            if retain is not None:
                retain(candidates, frequent)
            subsets = np.compress(frequent, subsets, axis=0)
        gen_sp.set(frequent=int(level.shape[0]))
        return level, subsets

    with span("generation", k=1, candidates=n_items) as gen_sp:
        items = np.arange(n_items, dtype=np.int32).reshape(-1, 1)
        level, subsets = keep(1, items, np.zeros((n_items, 1), dtype=np.int32), gen_sp)

    k = 1
    while level.shape[0] and (max_k is None or k < max_k):
        k += 1
        with span("generation", k=k) as gen_sp:
            with span("candidate_gen", k=k - 1) as sp:
                candidates, cand_subsets = join_level(level, subsets)
                sp.set(frequent_k=int(level.shape[0]), produced=int(candidates.shape[0]))
            gen_sp.set(candidates=int(candidates.shape[0]))
            if candidates.shape[0] == 0:
                break
            level, subsets = keep(k, candidates, cand_subsets, gen_sp)
    return levels
