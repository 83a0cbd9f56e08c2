"""Candidate generation: leaf/sibling join with Apriori pruning.

The trie form (paper Section III): two frequent k-itemsets sharing a
(k-1)-prefix are siblings under the same trie node, so generation k+1
is produced by merging each leaf with its *right* siblings and
appending new leaves. The Apriori property then prunes any candidate
with an infrequent k-subset — the "equivalent-class" style join that
"speeds up candidate generation by avoiding the slow O(n^2) complete
join" (Zaki, paper ref. [8]).

Both entry points here are adapters over the array join
:func:`~repro.trie.level.join_level`: :func:`generate_candidates` for a
:class:`CandidateTrie`, :func:`join_frequent` for plain sorted-tuple
lists.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Set, Tuple

import numpy as np

from ..errors import TrieError
from .level import join_level
from .trie import CandidateTrie

__all__ = ["generate_candidates", "join_frequent", "all_subsets_frequent"]


def all_subsets_frequent(
    candidate: Sequence[int],
    frequent: Set[Tuple[int, ...]],
) -> bool:
    """Apriori downward-closure check on the (k-1)-subsets.

    The two subsets obtained by dropping one of the last two items are
    the join's parents and are frequent by construction, but checking
    all k subsets keeps this usable as a standalone predicate.
    """
    k = len(candidate)
    if k <= 1:
        return True
    return all(
        tuple(candidate[:i]) + tuple(candidate[i + 1 :]) in frequent
        for i in range(k)
    )


def generate_candidates(trie: CandidateTrie, k: int) -> np.ndarray:
    """Generate the (k+1)-candidates from the trie's frequent k-level.

    Joins the depth-``k`` itemsets with :func:`join_level`, inserts the
    survivors into the trie (support unset) and returns them as an
    ``(n, k+1)`` int32 array — the contiguous candidate buffer
    GPApriori ships to the GPU.

    Precondition: depth-``k`` contains only *frequent* leaves (call
    :meth:`CandidateTrie.prune_level` first), otherwise the join would
    extend infrequent itemsets.
    """
    if k < 1:
        raise TrieError("k must be >= 1")
    level = np.array(trie.itemsets_at_depth(k), dtype=np.int32).reshape(-1, k)
    candidates, _ = join_level(level)
    for row in candidates.tolist():
        trie.insert(row)
    return candidates


def join_frequent(frequent_k: Iterable[Tuple[int, ...]]) -> List[Tuple[int, ...]]:
    """Classic ``F_k x F_k`` join over sorted tuples (no trie).

    Joins pairs sharing the first k-1 items, then applies the subset
    prune. Returns canonically sorted (k+1)-tuples in lexicographic
    order.
    """
    level: List[Tuple[int, ...]] = sorted(set(frequent_k))
    if not level:
        return []
    k = len(level[0])
    if any(len(t) != k for t in level):
        raise TrieError("join_frequent requires itemsets of equal length")
    if any(any(b <= a for a, b in zip(t, t[1:])) for t in level):
        raise TrieError("itemsets must be strictly increasing tuples")
    candidates, _ = join_level(np.array(level, dtype=np.int32).reshape(-1, k))
    return list(map(tuple, candidates.tolist()))
