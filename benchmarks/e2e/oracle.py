"""Independent reference miner and the digest every output is checked by.

The reference is a level-wise Apriori over packed per-item bitsets,
written against NumPy alone. It shares no code with repro's trie,
bitset or engine modules, so a bug there cannot pass by also being in
the reference.

The digest covers only the itemset -> support map, the absolute
threshold and the transaction count. Documents from ``mine --json`` and
``/v1/mine`` also carry ``wall_seconds`` and counters, so their raw
bytes differ between identical runs.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Sequence, Tuple

import numpy as np

Itemsets = Dict[Tuple[int, ...], int]

_CHUNK = 4096


def digest(n_transactions: int, min_support: int, itemsets: list) -> str:
    """SHA-256 of ``[n, min_support, [[items], support]...]`` in sorted order."""
    payload = json.dumps(
        [int(n_transactions), int(min_support), itemsets], separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def doc_digest(doc: dict) -> str:
    """Digest of a ``repro.mining_result/1`` document."""
    return digest(doc["n_transactions"], doc["min_support"], doc["itemsets"])


def itemsets_digest(n_transactions: int, min_support: int, found: Itemsets) -> str:
    """Digest of the reference's own itemset map, at ``min_support``."""
    return digest(
        n_transactions,
        min_support,
        [[list(items), s] for items, s in sorted(found.items()) if s >= min_support],
    )


def support_count(ratio: float, n_transactions: int) -> int:
    """Absolute count for a support ratio: ``support >= ratio * n``."""
    return max(1, int(np.ceil(ratio * n_transactions)))


def _item_bits(rows: Sequence[Sequence[int]], n_items: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-item transaction bitsets as uint64 words, plus item supports."""
    n = len(rows)
    lengths = np.fromiter((len(r) for r in rows), dtype=np.int64, count=n)
    items = np.fromiter((i for r in rows for i in r), dtype=np.int64, count=int(lengths.sum()))
    tids = np.repeat(np.arange(n), lengths)
    dense = np.zeros((n_items, -(-n // 64) * 64), dtype=bool)
    dense[items, tids] = True
    packed = np.packbits(dense, axis=1)
    return np.ascontiguousarray(packed).view(np.uint64), dense.sum(axis=1)


def _join(level: List[Tuple[int, ...]]) -> Tuple[List[int], List[int], List[Tuple[int, ...]]]:
    """Prefix join + subset prune of one sorted level.

    Returns, per candidate, the index of its left parent in ``level``,
    its last item, and the candidate itself, in lexicographic order.
    """
    present = set(level)
    left: List[int] = []
    last: List[int] = []
    cands: List[Tuple[int, ...]] = []
    start = 0
    while start < len(level):
        prefix = level[start][:-1]
        stop = start + 1
        while stop < len(level) and level[stop][:-1] == prefix:
            stop += 1
        for a in range(start, stop):
            for b in range(a + 1, stop):
                cand = level[a] + (level[b][-1],)
                # Dropping either of the last two items gives level[a] or
                # level[b]; every other (k-1)-subset must be frequent too.
                if all(cand[:p] + cand[p + 1:] in present for p in range(len(cand) - 2)):
                    left.append(a)
                    last.append(level[b][-1])
                    cands.append(cand)
        start = stop
    return left, last, cands


def frequent_itemsets(rows: Sequence[Sequence[int]], n_items: int, min_count: int) -> Itemsets:
    """Every itemset with support >= ``min_count``, with its support."""
    bits, item_support = _item_bits(rows, n_items)
    level = [(int(i),) for i in np.nonzero(item_support >= min_count)[0]]
    found: Itemsets = {t: int(item_support[t[0]]) for t in level}
    level_bits = bits[[t[0] for t in level]]
    while len(level) > 1:
        left, last, cands = _join(level)
        if not cands:
            break
        left_idx = np.asarray(left)
        last_idx = np.asarray(last)
        keep_bits = []
        keep_cands: List[Tuple[int, ...]] = []
        for lo in range(0, len(cands), _CHUNK):
            hi = min(lo + _CHUNK, len(cands))
            joined = level_bits[left_idx[lo:hi]] & bits[last_idx[lo:hi]]
            support = np.bitwise_count(joined).sum(axis=1, dtype=np.int64)
            hit = np.nonzero(support >= min_count)[0]
            keep_bits.append(joined[hit])
            for j in hit:
                cand = cands[lo + j]
                found[cand] = int(support[j])
                keep_cands.append(cand)
        level = keep_cands
        level_bits = np.concatenate(keep_bits) if keep_bits else bits[:0]
    return found
