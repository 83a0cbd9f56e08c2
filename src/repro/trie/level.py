"""The paper's Fig. 1 trie stored by level.

Generation ``k`` is a lexicographically sorted ``(n, k)`` int32 array
plus its *subset table*: an ``(n, k)`` integer array whose entry
``[r, d]`` is the row, in generation ``k-1``, of row ``r`` with item
``d`` dropped. Column ``k-1`` is the row's parent (its ``(k-1)``-prefix
node), so runs of equal parents are the paper's sibling groups and the
trie's shape is the sort order; no node objects exist.

:func:`join_level` joins siblings into the next generation and checks
each candidate's other k-subsets by ``(parent row, last item)`` integer
keys, returning the candidates' own subset table for the generation
after. The level-wise driver chains those tables; callers without one
get it from :func:`level_subsets`. :func:`join_frequent` runs the same
join over sorted-tuple lists.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from ..errors import TrieError

__all__ = ["join_level", "join_frequent", "level_subsets", "row_keys"]


def row_keys(rows: np.ndarray) -> np.ndarray:
    """One byte-string key per row that sorts like the row.

    Big-endian non-negative items compare bytewise in numeric order, so
    a sorted level has sorted keys at any width — unlike one int64 per
    row, which overflows once ``n_items**k >= 2**63``.
    """
    rows = np.ascontiguousarray(rows, dtype=">i4")
    return rows.view(np.dtype((np.void, 4 * rows.shape[1]))).ravel()


def level_subsets(level: np.ndarray) -> np.ndarray:
    """The subset table of a sorted level that has no previous generation.

    Ranks every ``(k-1)``-subset of the rows among all of them; ranks
    keep the lexicographic order, so they serve as row ids of the
    generation those subsets would form.
    """
    level = np.asarray(level, dtype=np.int32)
    n, k = level.shape
    if k == 1:
        return np.zeros((n, 1), dtype=np.int32)
    dropped = np.concatenate([np.delete(level, d, axis=1) for d in range(k)])
    _, rank = np.unique(dropped, axis=0, return_inverse=True)
    return rank.reshape(k, n).T.astype(np.int32)


def _checked_subsets(subsets, shape: Tuple[int, int]) -> np.ndarray:
    try:
        subsets = np.asarray(subsets)
    except ValueError as exc:  # ragged nested sequences
        raise TrieError(f"a subset table must be an (n, k) array: {exc}") from None
    if subsets.shape != shape:
        raise TrieError(f"a subset table must have the level's shape {shape}, got {subsets.shape}")
    if subsets.dtype.kind not in "iu":
        raise TrieError(f"a subset table holds integer row ids, got dtype {subsets.dtype}")
    if subsets.size and (subsets.min() < 0 or subsets.max() >= 2**31):
        raise TrieError("subset row ids must lie in [0, 2**31)")
    return subsets.astype(np.int32, copy=False)


def join_level(
    level: np.ndarray, subsets: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """The leaf/right-sibling join of a frequent level, Apriori-pruned.

    ``level`` holds unique, strictly increasing, lexicographically
    sorted rows of non-negative items, and ``subsets`` its subset table
    (built by :func:`level_subsets` when omitted). Returns
    ``(candidates, cand_subsets)``: the sorted ``(m, k+1)`` int32 rows
    ``prefix + (a, b)`` joined from level rows ``left = prefix + (a,)``
    and ``right = prefix + (b,)`` whose every k-subset is in ``level``,
    and their int32 subset table into ``level``. Its last column,
    ``left``, is each candidate's parent.
    """
    level = np.asarray(level, dtype=np.int32)
    if level.ndim != 2:
        raise TrieError(f"a level must be a 2-d (n, k) array, got shape {level.shape}")
    n, k = level.shape
    subsets = level_subsets(level) if subsets is None else _checked_subsets(subsets, (n, k))
    if n < 2:
        return np.empty((0, k + 1), dtype=np.int32), np.empty((0, k + 1), dtype=np.int32)

    # Sibling groups: maximal runs of rows sharing the parent.
    parent = subsets[:, k - 1]
    starts = np.flatnonzero(np.concatenate(([True], parent[1:] != parent[:-1])))
    sizes = np.diff(np.append(starts, n))
    rows = np.arange(n)
    # Each row joins every right sibling: (end of its group) - row - 1.
    fanout = np.repeat(starts + sizes, sizes) - rows - 1
    left = np.repeat(rows, fanout)
    first_pair = np.cumsum(fanout) - fanout
    right = np.arange(left.size) - np.repeat(first_pair, fanout) + left + 1

    # Apriori prune. A level row is known by (parent, last item), keyed
    # as parent * radix + last: strictly increasing, and below 2**62.
    # Dropping item d < k-1 from prefix + (a, b) leaves the row whose
    # parent is left's subset without d and whose last item is b; the
    # row found is the candidate's table entry d. Each check keeps only
    # its hits, so later checks and the table see survivors only.
    last = level[:, k - 1]
    radix = int(last.max()) + 1
    keys = parent.astype(np.int64) * radix + last
    b = last[right]
    found = []
    for d in range(k - 1):
        query = subsets[:, d][left].astype(np.int64) * radix + b
        at = np.minimum(np.searchsorted(keys, query), n - 1)
        hit = keys[at] == query
        left, right, b = left[hit], right[hit], b[hit]
        found = [col[hit] for col in found] + [at[hit]]
    cand_subsets = np.empty((left.size, k + 1), dtype=np.int32)
    for d, col in enumerate(found + [right, left]):
        cand_subsets[:, d] = col

    candidates = np.empty((left.size, k + 1), dtype=np.int32)
    candidates[:, :k] = np.take(level, left, axis=0)  # faster than level[left]
    candidates[:, k] = b
    return candidates, cand_subsets


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
