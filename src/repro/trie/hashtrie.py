"""Bodon-style counting trie for horizontal support counting.

Bodon's Apriori ("A Trie-based APRIORI Implementation for Mining
Frequent Item Sequences", OSDM 2005 — paper ref. [6]) counts a
generation by pushing every transaction through the candidate trie:
from each node reached with ``r`` items still needed, recurse on the
transaction's remaining items that have an edge. Interior fan-out is
found through a per-node hash map (Bodon's "candidate hashing").

The traversal records node-visit and hash-probe counts, which the CPU
cost model prices — trie hops are the pointer-chasing, cache-hostile
accesses the paper contrasts with linear bitset scans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..errors import TrieError

__all__ = ["HashTrie", "HashTrieCounters"]


@dataclass
class HashTrieCounters:
    """Work counters of horizontal counting runs (for the cost model)."""

    node_visits: int = 0
    hash_probes: int = 0
    items_touched: int = 0


class _Node:
    __slots__ = ("children", "count")

    def __init__(self) -> None:
        self.children: Dict[int, "_Node"] = {}
        self.count = 0


class HashTrie:
    """Hash-fanout trie holding one generation of k-candidates.

    Unlike the level arrays of :mod:`~repro.trie.level` (which hold
    every generation for candidate generation), a ``HashTrie`` holds a
    single generation and exists to be *counted against* horizontal
    transactions.
    """

    def __init__(self, candidates: Iterable[Sequence[int]]) -> None:
        self.root = _Node()
        self.k = -1
        self.n_candidates = 0
        for cand in candidates:
            items = list(cand)
            if self.k < 0:
                if not items:
                    raise TrieError("candidates must be non-empty")
                self.k = len(items)
            elif len(items) != self.k:
                raise TrieError("all candidates in a HashTrie must share one length")
            if any(b <= a for a, b in zip(items, items[1:])):
                raise TrieError(f"candidate must be strictly increasing: {items}")
            node = self.root
            for it in items:
                node = node.children.setdefault(int(it), _Node())
            self.n_candidates += 1
        if self.k < 0:
            self.k = 0

    def count_transaction(
        self, transaction: np.ndarray, counters: HashTrieCounters | None = None
    ) -> None:
        """Increment every candidate contained in one sorted transaction.

        Recursive containment walk: at depth ``d`` having consumed
        transaction position ``p``, try every remaining item that still
        leaves enough items to complete a k-path. The classic pruning
        bound ``len(t) - (k - d) + 1`` keeps the walk sub-quadratic on
        sparse data.
        """
        k = self.k
        if k == 0:
            return
        # one conversion: probing a NumPy array item by item boxes an
        # int per probe
        t = transaction.tolist()
        n = len(t)

        def walk(node: _Node, depth: int, start: int) -> None:
            remaining = k - depth
            # last start index that still leaves `remaining` items
            stop = n - remaining + 1
            for p in range(start, stop):
                if counters is not None:
                    counters.items_touched += 1
                    counters.hash_probes += 1
                child = node.children.get(t[p])
                if child is None:
                    continue
                if counters is not None:
                    counters.node_visits += 1
                if depth + 1 == k:
                    child.count += 1
                else:
                    walk(child, depth + 1, p + 1)

        walk(self.root, 0, 0)

    def count_database(self, db, counters: HashTrieCounters | None = None) -> None:
        """Count every transaction of a database (one full scan)."""
        for row in db:
            self.count_transaction(row, counters)

    def supports(self) -> List[Tuple[Tuple[int, ...], int]]:
        """All (candidate, count) pairs in lexicographic order."""
        out: List[Tuple[Tuple[int, ...], int]] = []

        def walk(node: _Node, prefix: List[int], depth: int) -> None:
            if depth == self.k:
                out.append((tuple(prefix), node.count))
                return
            for item in sorted(node.children):
                prefix.append(item)
                walk(node.children[item], prefix, depth + 1)
                prefix.pop()

        if self.k:
            walk(self.root, [], 0)
        return out
