"""Eclat: depth-first equivalence-class mining over tidsets.

Zaki's Eclat (KDD 1997, ref. [8]) explores the itemset lattice
depth-first within equivalence classes (itemsets sharing a prefix),
intersecting tidsets as it descends. The **diffset** variant (Zaki &
Gouda, SIGKDD 2003, ref. [3]) stores, below the first level, only the
*difference* between a prefix's tidset and its extension's, which
shrinks memory and merge work dramatically on dense data:

    ``support(PX) = support(P) - |diffset(PX)|``
    ``diffset(PXY) = diffset(PY) - diffset(PX)``

Both variants are included; the paper's related-work section names
Eclat as one of the three best-known FIM algorithms, and the diffset
variant is the strongest tidset-family CPU competitor.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from .._validation import check_query
from ..bitset.tidset import TidsetTable, intersect_tidsets
from ..errors import MiningError
from ..gpusim.perfmodel import CpuCostModel
from ..obs import mining_run, span
from ..core.itemset import MiningResult, RunMetrics

__all__ = ["eclat_mine"]


def eclat_mine(
    db,
    min_support,
    diffsets: bool = False,
    max_k: int | None = None,
) -> MiningResult:
    """Mine frequent itemsets depth-first with tidsets or diffsets.

    Parameters
    ----------
    diffsets:
        Use the Zaki-Gouda diffset representation below level 1.
    """
    min_count = check_query(min_support, db.n_transactions, max_k, MiningError)
    algorithm = "eclat_diffset" if diffsets else "eclat"
    metrics = RunMetrics(algorithm=algorithm)
    cost = CpuCostModel()

    with mining_run(algorithm, metrics):
        with span("tidset_build"):
            table = TidsetTable.from_database(db)
        found: Dict[Tuple[int, ...], int] = {}
        merge_steps = 0

        # Level 1.
        metrics.generations.append(db.n_items)
        level1: List[Tuple[int, np.ndarray]] = []
        for item in range(db.n_items):
            t = table.tidset(item)
            merge_steps += int(t.size)
            if t.size >= min_count:
                found[(item,)] = int(t.size)
                level1.append((item, t))

        def recurse(
            prefix: Tuple[int, ...],
            siblings: List[Tuple[int, np.ndarray, int]],
            depth: int,
        ) -> None:
            """Extend ``prefix`` by each sibling; siblings carry (item, set, support).

            In tidset mode ``set`` is the extension's tidset. In diffset
            mode it is ``diffset(prefix + item)`` and ``support`` is exact.
            """
            nonlocal merge_steps
            if max_k is not None and depth >= max_k:
                return
            for idx, (item, iset, isupport) in enumerate(siblings):
                new_prefix = prefix + (item,)
                children: List[Tuple[int, np.ndarray, int]] = []
                for jtem, jset, jsupport in siblings[idx + 1 :]:
                    merge_steps += int(iset.size + jset.size)
                    if diffsets:
                        # diffset(P,i,j) = diffset(P,j) - diffset(P,i)
                        dset = np.setdiff1d(jset, iset, assume_unique=True)
                        support = isupport - int(dset.size)
                        out = dset
                    else:
                        out = intersect_tidsets(iset, jset)
                        support = int(out.size)
                    if support >= min_count:
                        key = tuple(sorted(new_prefix + (jtem,)))
                        found[key] = support
                        children.append((jtem, out, support))
                if children:
                    recurse(new_prefix, children, depth + 1)

        if level1:
            with span("dfs", diffsets=diffsets):
                if diffsets and (max_k is None or max_k >= 2):
                    # Diffsets start at level 2 (d(ij) = t(i) - t(j)); level 1
                    # stays in tidset form, so run one explicit pair level to
                    # switch representation, then recurse on diffsets.
                    for idx, (item, iset) in enumerate(level1):
                        children: List[Tuple[int, np.ndarray, int]] = []
                        for jtem, jset in level1[idx + 1 :]:
                            merge_steps += int(iset.size + jset.size)
                            dset = np.setdiff1d(iset, jset, assume_unique=True)
                            support = int(iset.size) - int(dset.size)
                            if support >= min_count:
                                found[(item, jtem)] = support
                                children.append((jtem, dset, support))
                        if children and (max_k is None or max_k > 2):
                            recurse((item,), children, 2)
                else:
                    seeds = [(item, tset, int(tset.size)) for item, tset in level1]
                    recurse((), seeds, 1)

        metrics.add_counter("tidset_merge_steps", merge_steps)
        metrics.add_modeled("cpu_tidset", cost.tidset_time(merge_steps))

    return MiningResult(found, db.n_transactions, min_count, metrics)
