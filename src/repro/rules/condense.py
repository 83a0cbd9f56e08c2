"""Condensed representations: closed and maximal frequent itemsets.

The paper's reference list leans on the closed-itemset literature
(Zaki & Hsiao; Pasquier et al.), and any practical deployment of a
frequent-itemset miner needs the condensed forms:

* an itemset is **closed** if no proper superset has the *same*
  support — the closed sets plus their supports losslessly determine
  every frequent itemset's support;
* an itemset is **maximal** if no proper superset is frequent — the
  maximal sets determine which itemsets are frequent, but not their
  supports.

Both are derived purely from a
:class:`~repro.core.itemset.MiningResult` (downward closure gives us
every superset candidate); :func:`support_from_closed` reconstructs any
frequent itemset's support from the closed representation, which the
property tests use to prove losslessness.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import MiningError
from ..core.itemset import Itemset, MiningResult

__all__ = ["closed_itemsets", "maximal_itemsets", "support_from_closed", "condensation_ratio"]

Items = Tuple[int, ...]


# One pass over the result's levels each (MiningResult._unabsorbed):
# immediate supersets suffice under downward closure.
closed_itemsets = MiningResult.closed_itemsets
maximal_itemsets = MiningResult.maximal_itemsets


def support_from_closed(
    closed: List[Itemset],
    items: Items,
) -> int:
    """Recover an itemset's support from the closed representation.

    ``support(X) = max{ support(C) : C closed, X ⊆ C }`` — the closure
    of X is its smallest closed superset, which (among supersets) has
    the largest support.

    Raises
    ------
    MiningError
        If no closed superset exists (i.e. ``items`` was not frequent
        at the mining threshold).
    """
    s = set(items)
    best = -1
    for c in closed:
        if best < c.support and s.issubset(c.items):
            best = max(best, c.support)
    if best < 0:
        raise MiningError(f"{tuple(items)} has no closed superset (not frequent)")
    return best


def condensation_ratio(result: MiningResult) -> Dict[str, float]:
    """Sizes of the three representations, as a compression report."""
    n_all = len(result)
    n_closed = len(closed_itemsets(result))
    n_maximal = len(maximal_itemsets(result))
    return {
        "frequent": float(n_all),
        "closed": float(n_closed),
        "maximal": float(n_maximal),
        "closed_ratio": n_closed / n_all if n_all else 1.0,
        "maximal_ratio": n_maximal / n_all if n_all else 1.0,
    }
