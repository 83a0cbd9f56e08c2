"""Support-counting plans: complete intersection vs equivalence class.

Section IV.2 of the paper weighs two ways to compute a k-candidate's
support from vertical bitsets:

* **Complete intersection** (the paper's choice): AND all k
  generation-1 rows, every generation. Recomputes (k-1)-prefix
  intersections each time, but the only device-resident state is the
  generation-1 table and the only per-generation transfer is the
  candidate id buffer. "On a GPU, the cost of these additional logic
  operations is lower than performing the additional memory references."
* **Equivalence-class clustering** (Zaki, ref. [8]): cache each
  frequent prefix's intersection row and AND it with a single new item
  row. Fewer logic ops, but the cache must live in device memory and be
  written back every generation.

A plan turns a generation's candidate array into engine calls; the
driver is plan-agnostic.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ConfigError
from .support import SupportEngine

__all__ = ["CompleteIntersectionPlan", "EquivalenceClassPlan", "make_plan"]


class CompleteIntersectionPlan:
    """AND all k generation-1 rows per candidate (paper Fig. 4)."""

    name = "complete"

    def count(
        self,
        engine: SupportEngine,
        candidates: np.ndarray,
        parents: Optional[np.ndarray],
    ) -> np.ndarray:
        return engine.count_complete(candidates)

    def after_prune(
        self,
        engine: SupportEngine,
        candidates: np.ndarray,
        frequent_mask: np.ndarray,
    ) -> None:
        """No cached state."""


class EquivalenceClassPlan:
    """Extend cached (k-1)-prefix rows by one generation-1 row each.

    The device cache holds one row per frequent itemset of the previous
    level, in level order, so a candidate's prefix row is its
    ``parents`` entry from the level join.
    """

    name = "equivalence"

    def count(
        self,
        engine: SupportEngine,
        candidates: np.ndarray,
        parents: Optional[np.ndarray],
    ) -> np.ndarray:
        k = candidates.shape[1]
        if k == 1:
            # Generation 1 has no prefixes; fall back to direct counting.
            return engine.count_complete(candidates)
        # After generation 1 the cache *is* the generation-1 table: a
        # frequent item's prefix row is its own bitset row.
        prefix_rows = candidates[:, 0] if k == 2 else parents
        pairs = np.column_stack((prefix_rows, candidates[:, -1]))
        return engine.count_extend(pairs.astype(np.int64, copy=False))

    def after_prune(
        self,
        engine: SupportEngine,
        candidates: np.ndarray,
        frequent_mask: np.ndarray,
    ) -> None:
        """Compact the survivors' rows into the device cache."""
        if candidates.shape[1] > 1:
            engine.retain(np.nonzero(frequent_mask)[0])


def make_plan(name: str):
    """Instantiate a plan by its config name."""
    if name == "complete":
        return CompleteIntersectionPlan()
    if name == "equivalence":
        return EquivalenceClassPlan()
    raise ConfigError(f"unknown plan {name!r}")
