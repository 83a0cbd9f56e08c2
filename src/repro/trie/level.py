"""The paper's Fig. 1 trie stored by level.

Generation ``k`` is a lexicographically sorted ``(n, k)`` int32 array.
Runs of rows sharing their first ``k-1`` items are the children of one
depth-``(k-1)`` node — the paper's sibling groups — so the trie's shape
is the sort order and no node objects exist. :func:`join_level` emits
candidates in a prefix tree's DFS order, which is lexicographic;
:func:`join_frequent` runs the same join over sorted-tuple lists.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

from ..errors import TrieError

__all__ = ["join_level", "join_frequent", "row_keys"]


def row_keys(rows: np.ndarray) -> np.ndarray:
    """One byte-string key per row that sorts like the row.

    Big-endian non-negative items compare bytewise in numeric order, so
    a sorted level has sorted keys at any width — unlike one int64 per
    row, which overflows once ``n_items**k >= 2**63``.
    """
    rows = np.ascontiguousarray(rows, dtype=">i4")
    return rows.view(np.dtype((np.void, 4 * rows.shape[1]))).ravel()


def join_level(level: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The leaf/right-sibling join of a frequent level, Apriori-pruned.

    ``level`` holds unique, strictly increasing, lexicographically
    sorted rows of non-negative items. Returns ``(candidates,
    parents)``: the sorted ``(m, k+1)`` int32 rows ``prefix + (a, b)``
    joined from level rows ``prefix + (a,)`` and ``prefix + (b,)`` whose
    every k-subset is in ``level``, and for each the level row holding
    its k-prefix.
    """
    level = np.asarray(level, dtype=np.int32)
    if level.ndim != 2:
        raise TrieError(f"a level must be a 2-d (n, k) array, got shape {level.shape}")
    n, k = level.shape
    if n < 2:
        return np.empty((0, k + 1), dtype=np.int32), np.empty(0, dtype=np.int64)

    # Sibling groups: maximal runs of rows sharing the (k-1)-prefix.
    starts = np.flatnonzero(
        np.concatenate(([True], (level[1:, :-1] != level[:-1, :-1]).any(axis=1)))
    )
    sizes = np.diff(np.append(starts, n))
    rows = np.arange(n)
    # Each row joins every right sibling: (end of its group) - row - 1.
    fanout = np.repeat(starts + sizes, sizes) - rows - 1
    left = np.repeat(rows, fanout)
    first_pair = np.cumsum(fanout) - fanout
    right = np.arange(left.size) - np.repeat(first_pair, fanout) + left + 1

    candidates = np.empty((left.size, k + 1), dtype=np.int32)
    candidates[:, :k] = level[left]
    candidates[:, k] = level[right, k - 1]

    # Apriori prune: dropping either of the last two items gives a join
    # parent; every other k-subset must be a row of the level.
    if k > 1:
        keys = row_keys(level)
        for drop in range(k - 1):
            subset = np.delete(candidates, drop, axis=1)
            at = np.minimum(np.searchsorted(keys, row_keys(subset)), n - 1)
            hit = (level[at] == subset).all(axis=1)
            candidates, left = candidates[hit], left[hit]
    return candidates, left.astype(np.int64, copy=False)


def join_frequent(frequent_k: Iterable[Tuple[int, ...]]) -> List[Tuple[int, ...]]:
    """:func:`join_level` over sorted tuples instead of an array.

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
