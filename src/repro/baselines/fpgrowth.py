"""FP-Growth: pattern growth without candidate generation.

Han, Pei & Yin (SIGMOD 2000, ref. [4]). The paper's related-work
section uses FP-Growth as the non-Apriori reference: typically the
fastest serial miner at low support, but overtaken by Apriori at high
minimum support and — the paper's core argument — much harder to
parallelize because the FP-tree traversal is irreducibly sequential.

Implementation: the textbook two-scan algorithm —

1. first scan counts items; infrequent items are dropped and the rest
   ordered by descending frequency;
2. second scan inserts each filtered, reordered transaction into the
   FP-tree (shared prefixes collapse into shared paths) with a header
   table threading all nodes of each item;
3. mining recurses per item, bottom-up: collect the item's conditional
   pattern base, build the conditional FP-tree, recurse.

Costs recorded: tree node visits (pointer chases, priced like trie
hops) and items touched during scans.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .._validation import check_query
from ..errors import MiningError
from ..gpusim.perfmodel import CpuCostModel
from ..obs import mining_run, span
from ..core.itemset import MiningResult, RunMetrics

__all__ = ["fpgrowth_mine"]


class _FPNode:
    __slots__ = ("item", "count", "parent", "children", "next_link")

    def __init__(self, item: int, parent: Optional["_FPNode"]) -> None:
        self.item = item
        self.count = 0
        self.parent = parent
        self.children: Dict[int, "_FPNode"] = {}
        self.next_link: Optional["_FPNode"] = None


class _FPTree:
    """FP-tree with a header table of per-item node chains."""

    def __init__(self) -> None:
        self.root = _FPNode(-1, None)
        self.header: Dict[int, _FPNode] = {}
        self.counts: Dict[int, int] = {}
        self.n_nodes = 0

    def insert(self, items: List[int], count: int) -> int:
        """Insert an ordered item list with multiplicity; returns node hops."""
        node = self.root
        hops = 0
        for item in items:
            child = node.children.get(item)
            if child is None:
                child = _FPNode(item, node)
                node.children[item] = child
                child.next_link = self.header.get(item)
                self.header[item] = child
                self.n_nodes += 1
            child.count += count
            self.counts[item] = self.counts.get(item, 0) + count
            node = child
            hops += 1
        return hops

    def single_path(self) -> Optional[List[Tuple[int, int]]]:
        """If the tree is one chain, return its (item, count) list."""
        path: List[Tuple[int, int]] = []
        node = self.root
        while node.children:
            if len(node.children) > 1:
                return None
            node = next(iter(node.children.values()))
            path.append((node.item, node.count))
        return path


def fpgrowth_mine(db, min_support, max_k: int | None = None) -> MiningResult:
    """Mine frequent itemsets with FP-Growth."""
    min_count = check_query(min_support, db.n_transactions, max_k, MiningError)
    metrics = RunMetrics(algorithm="fpgrowth")
    cost = CpuCostModel()
    with mining_run("fpgrowth", metrics):

        node_visits = 0
        items_scanned = 0

        # ---- scan 1: item frequencies; frequency-descending order.
        item_supports = db.item_supports()
        items_scanned += int(db.items_flat.size)
        frequent_items = np.nonzero(item_supports >= min_count)[0]
        # order: descending support, ascending id for determinism
        order = sorted(frequent_items, key=lambda i: (-int(item_supports[i]), int(i)))
        rank = {int(item): r for r, item in enumerate(order)}

        found: Dict[Tuple[int, ...], int] = {}
        for item in frequent_items:
            found[(int(item),)] = int(item_supports[item])

        # ---- scan 2: build the global FP-tree.
        tree = _FPTree()
        with span("tree_build") as sp:
            for row in db:
                items_scanned += int(row.size)
                filtered = sorted(
                    (int(x) for x in row if int(x) in rank), key=lambda x: rank[x]
                )
                if filtered:
                    node_visits += tree.insert(filtered, 1)
            sp.set(nodes=tree.n_nodes)

        # ---- recursive pattern growth.
        def mine_tree(tree: _FPTree, suffix: Tuple[int, ...]) -> None:
            nonlocal node_visits
            if max_k is not None and len(suffix) >= max_k:
                return
            single = tree.single_path()
            if single is not None:
                # Enumerate all combinations of the single path directly.
                from itertools import combinations

                for r in range(1, len(single) + 1):
                    if max_k is not None and len(suffix) + r > max_k:
                        break
                    for combo in combinations(single, r):
                        support = min(c for _, c in combo)
                        key = tuple(sorted(suffix + tuple(i for i, _ in combo)))
                        if support >= min_count:
                            found[key] = support
                return
            # Process items in ascending frequency (bottom-up).
            for item in sorted(tree.counts, key=lambda i: (tree.counts[i], -i)):
                support = tree.counts[item]
                if support < min_count:
                    continue
                new_suffix = tuple(sorted(suffix + (item,)))
                if suffix:
                    found[new_suffix] = support
                if max_k is not None and len(new_suffix) >= max_k:
                    continue
                # Conditional pattern base of `item`.
                cond = _FPTree()
                node = tree.header.get(item)
                while node is not None:
                    path: List[int] = []
                    p = node.parent
                    node_visits += 1
                    while p is not None and p.item >= 0:
                        path.append(p.item)
                        p = p.parent
                        node_visits += 1
                    if path:
                        path.reverse()
                        node_visits += cond.insert(path, node.count)
                    node = node.next_link
                # Prune the conditional tree's infrequent items by rebuilding.
                cond_frequent = {
                    i for i, c in cond.counts.items() if c >= min_count
                }
                if cond_frequent:
                    pruned = _FPTree()
                    node = tree.header.get(item)
                    while node is not None:
                        path = []
                        p = node.parent
                        while p is not None and p.item >= 0:
                            if p.item in cond_frequent:
                                path.append(p.item)
                            p = p.parent
                        if path:
                            path.reverse()
                            node_visits += pruned.insert(path, node.count)
                        node = node.next_link
                    if pruned.counts:
                        mine_tree(pruned, new_suffix)

        with span("pattern_growth") as sp:
            mine_tree(tree, ())
            sp.set(node_visits=node_visits, itemsets=len(found))

        metrics.generations.append(db.n_items)
        metrics.add_counter("fp_node_visits", node_visits)
        metrics.add_counter("items_scanned", items_scanned)
        metrics.add_modeled("cpu_fptree", cost.trie_time(node_visits))
        metrics.add_modeled("cpu_scan", cost.scan_time(items_scanned))
    return MiningResult(found, db.n_transactions, min_count, metrics)
