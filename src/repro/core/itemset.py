"""Result value types shared by every mining algorithm.

All seven miners in this package return the same
:class:`MiningResult`, which makes the cross-algorithm equality checks
in the test suite and the Figure 6 benchmark harness one-liners.

A result keeps the sorted ``(n, k)`` int32 rows and int64 supports
that :func:`~repro.core.levelwise.levelwise` finds per itemset size,
checks them with array operations, serializes them with one merge of
the sorted levels, and builds an ``{items: support}`` dict only for
lookups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import MiningError
from ..obs.metrics import MetricsRegistry
from ..trie.level import row_keys

__all__ = ["Itemset", "RunMetrics", "MiningResult"]

ItemsTuple = Tuple[int, ...]
#: One itemset size: ``(n, k)`` int32 rows and their ``(n,)`` int64 supports.
Level = Tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True, order=True)
class Itemset:
    """A frequent itemset with its absolute support."""

    items: ItemsTuple
    support: int

    def __post_init__(self) -> None:
        if any(b <= a for a, b in zip(self.items, self.items[1:])):
            raise MiningError(f"items must be strictly increasing: {self.items}")
        if self.support < 0:
            raise MiningError("support must be >= 0")

    def __len__(self) -> int:
        return len(self.items)

    def ratio(self, n_transactions: int) -> float:
        """Support ratio — the paper's frequency measure."""
        if n_transactions <= 0:
            raise MiningError("n_transactions must be positive")
        return self.support / n_transactions


class RunMetrics:
    """Measured and modeled costs of one mining run.

    ``wall_seconds`` is honest Python wall-clock. ``modeled_seconds``
    prices the run's *operation counts* on era hardware via
    :mod:`repro.gpusim.perfmodel` — the basis of the paper-comparable
    Figure 6 speedups (see EXPERIMENTS.md for the distinction).

    Counts live in a :class:`repro.obs.MetricsRegistry`, the one store
    the engines' kernel, coalescing and transfer counters also go to;
    ``counters`` is a copy of its unlabeled counters. Engines that run
    side by side (a fleet's devices) each take a ``RunMetrics`` of
    their own over the run's registry: their counters add into the run,
    their modeled seconds stay their own. ``generations`` holds the
    candidate count per generation, k = 1, 2, ...
    """

    def __init__(
        self,
        algorithm: str = "",
        wall_seconds: float = 0.0,
        modeled_seconds: float | None = None,
        modeled_breakdown: Optional[Mapping[str, float]] = None,
        counters: Optional[Mapping[str, int]] = None,
        generations: Optional[Sequence[int]] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.algorithm = algorithm
        self.wall_seconds = wall_seconds
        self.modeled_seconds = modeled_seconds
        self.modeled_breakdown: Dict[str, float] = dict(modeled_breakdown or {})
        self.registry = registry if registry is not None else MetricsRegistry()
        for name, amount in (counters or {}).items():
            self.registry.inc(name, amount)
        self.generations: List[int] = list(generations or [])

    @property
    def counters(self) -> Dict[str, int]:
        """A copy of :attr:`registry`'s counters; add with :meth:`add_counter`."""
        return self.registry.counters

    def add_counter(self, name: str, amount: int) -> None:
        self.registry.inc(name, amount)

    def add_modeled(self, name: str, seconds: float) -> None:
        self.modeled_breakdown[name] = self.modeled_breakdown.get(name, 0.0) + seconds
        self.modeled_seconds = (self.modeled_seconds or 0.0) + seconds

    def __repr__(self) -> str:
        return (
            f"RunMetrics(algorithm={self.algorithm!r}, "
            f"wall_seconds={self.wall_seconds!r}, "
            f"modeled_seconds={self.modeled_seconds!r}, "
            f"generations={self.generations!r})"
        )


def _mapping_levels(itemsets: Mapping[ItemsTuple, int]) -> List[Level]:
    """Group a ``{items: support}`` mapping into sorted per-size arrays."""
    by_size: Dict[int, list] = {}
    for items in itemsets:
        by_size.setdefault(len(items), []).append(items)
    keys = [sorted(by_size[k]) for k in sorted(by_size)]
    return [(np.array(k), np.array([itemsets[t] for t in k])) for k in keys]


def _byte_keys(rows: np.ndarray) -> np.ndarray:
    """:func:`~repro.trie.level.row_keys` as bytes, which compare by ``memcmp``."""
    return row_keys(rows).view(f"S{4 * rows.shape[1]}")


def _checked_level(rows, supports, n_transactions: int) -> Optional[Level]:
    """A level as read-only int32 rows and int64 supports; ``None`` when empty."""
    rows, supports = np.asarray(rows), np.asarray(supports)
    if rows.ndim != 2 or supports.shape != rows.shape[:1]:
        raise MiningError(
            f"a level is (n, k) rows and n supports, not {rows.shape} and {supports.shape}"
        )
    n, k = rows.shape
    if n == 0:
        return None
    if (k == 0 or rows.dtype.kind not in "iu" or supports.dtype.kind not in "iu"
            or rows.min() < 0 or (rows.dtype != np.int32 and rows.max() >= 2**31)):
        raise MiningError(f"size-{k} itemsets need int supports and int32 ids >= 0")
    # Each row must sort after the one before it, so a level is sorted
    # and lists no itemset twice.
    keys = _byte_keys(rows)
    for bad, offset, what in (
        (rows[:, 1:] <= rows[:, :-1], 0, "not strictly increasing"),
        (keys[1:] <= keys[:-1], 1, "repeated or out of order"),
        ((supports < 0) | (supports > n_transactions), 0, f"outside [0, {n_transactions}]"),
    ):
        if np.count_nonzero(bad):
            i = int(np.argwhere(bad)[0][0]) + offset
            items = tuple(rows[i].tolist())
            raise MiningError(f"itemset {items} (support {supports[i]}) {what}")
    rows = rows.astype(np.int32, copy=False).view()
    supports = supports.astype(np.int64, copy=False).view()
    rows.flags.writeable = supports.flags.writeable = False
    return rows, supports


def _checked_levels(levels: Iterable[Level], n_transactions: int) -> Tuple[Level, ...]:
    if n_transactions < 0:
        raise MiningError("n_transactions must be >= 0")
    checked = [_checked_level(r, s, n_transactions) for r, s in levels]
    checked = [level for level in checked if level is not None]
    widths = [rows.shape[1] for rows, _ in checked]
    if widths != sorted(set(widths)):
        raise MiningError(f"levels must hold strictly increasing sizes, got {widths}")
    return tuple(checked)


def _itemsets(rows: np.ndarray, supports: np.ndarray) -> List[Itemset]:
    return [Itemset(tuple(r), s) for r, s in zip(rows.tolist(), supports.tolist())]


class MiningResult:
    """The frequent itemsets of one run plus its metrics.

    Parameters
    ----------
    itemsets:
        Mapping from sorted item tuples to absolute support.
    n_transactions:
        Database size (denominator of support ratios).
    min_support:
        The absolute threshold the run used.
    metrics:
        Cost record; optional for hand-built results in tests.

    :attr:`levels` holds one read-only ``(rows, supports)`` pair per
    itemset size, in increasing size; both constructors check them.
    """

    def __init__(
        self,
        itemsets: Mapping[ItemsTuple, int],
        n_transactions: int,
        min_support: int,
        metrics: RunMetrics | None = None,
    ) -> None:
        levels = _checked_levels(_mapping_levels(itemsets), n_transactions)
        self.levels: Tuple[Level, ...] = levels
        self._dict: Optional[Dict[ItemsTuple, int]] = None
        self.n_transactions = n_transactions
        self.min_support = min_support
        self.metrics = metrics or RunMetrics()

    @classmethod
    def from_levels(
        cls,
        levels: Iterable[Level],
        n_transactions: int,
        min_support: int,
        metrics: RunMetrics | None = None,
    ) -> "MiningResult":
        """A result over per-size ``(rows, supports)`` arrays, kept as given.

        >>> import numpy as np
        >>> levels = [(np.array([[0], [2]]), np.array([3, 2])), (np.array([[0, 2]]), [2])]
        >>> r = MiningResult.from_levels(levels, n_transactions=4, min_support=2)
        >>> r.support_of((0, 2)), len(r)
        (2, 3)
        """
        result = cls({}, n_transactions, min_support, metrics)
        result.levels = _checked_levels(levels, n_transactions)
        return result

    def at_least(self, min_support: int, max_k: Optional[int] = None) -> "MiningResult":
        """The itemsets with support >= ``min_support`` and at most ``max_k`` items.

        One support mask per level, cut at ``max_k``. The masks keep
        this result's checked order, so they are not checked again. A
        looser ``min_support`` than this result's raises: it cannot be
        answered from this result.
        """
        if min_support < self.min_support:
            raise MiningError(f"min_support {min_support} is below this result's")
        kept = []
        for rows, supports in self.levels:
            if max_k is not None and rows.shape[1] > max_k:
                break
            mask = supports >= min_support
            rows, supports = np.compress(mask, rows, axis=0), supports[mask]
            rows.flags.writeable = supports.flags.writeable = False
            if len(rows):
                kept.append((rows, supports))
        metrics = RunMetrics(algorithm=self.metrics.algorithm)
        result = MiningResult({}, self.n_transactions, min_support, metrics)
        result.levels = tuple(kept)
        return result

    def _view(self) -> Dict[ItemsTuple, int]:
        """The ``{items: support}`` dict, built on first use and published
        by one assignment (threads share cached results; at worst two build it)."""
        if self._dict is None:
            self._dict = {
                items: support
                for rows, supports in self.levels
                for items, support in zip(map(tuple, rows.tolist()), supports.tolist())
            }
        return self._dict

    # -- container protocol ------------------------------------------------------

    def __len__(self) -> int:
        return sum(rows.shape[0] for rows, _ in self.levels)

    def __iter__(self) -> Iterator[Itemset]:
        for level in self.levels:
            yield from _itemsets(*level)

    def __contains__(self, items: Sequence[int]) -> bool:
        return tuple(items) in self._view()

    def support_of(self, items: Sequence[int]) -> int:
        """Absolute support of a frequent itemset; raises if absent."""
        key = tuple(items)
        if key not in self._view():
            raise MiningError(f"{key} is not a frequent itemset of this result")
        return self._view()[key]

    def as_dict(self) -> Dict[ItemsTuple, int]:
        """Copy of the itemset -> support mapping."""
        return dict(self._view())

    # -- views ---------------------------------------------------------------------

    def of_size(self, k: int) -> List[Itemset]:
        """Frequent k-itemsets in lexicographic order."""
        return next((_itemsets(*lvl) for lvl in self.levels if lvl[0].shape[1] == k), [])

    def max_size(self) -> int:
        """Length of the longest frequent itemset (0 when empty)."""
        return self.levels[-1][0].shape[1] if self.levels else 0

    def maximal_itemsets(self) -> List[Itemset]:
        """Itemsets with no frequent proper superset in this result."""
        return self._unabsorbed(same_support=False)

    def closed_itemsets(self) -> List[Itemset]:
        """Itemsets with no frequent proper superset of equal support."""
        return self._unabsorbed(same_support=True)

    def _unabsorbed(self, same_support: bool) -> List[Itemset]:
        """The k-rows that no (k+1)-row with one column dropped equals.

        Each dropped-column copy of level k+1 is looked up in level k's
        sorted keys, and the rows it hits are cleared. With
        ``same_support`` the support is a last key column, so only an
        equal-support superset absorbs. Under downward closure (every
        miner's output) checking immediate supersets suffices.
        """
        keyed = [np.column_stack(lvl) if same_support else lvl[0] for lvl in self.levels]
        width = {rows.shape[1]: i for i, (rows, _) in enumerate(self.levels)}
        out: List[Itemset] = []
        for (rows, supports), keys in zip(self.levels, keyed):
            k = rows.shape[1]
            if k + 1 in width:
                above = keyed[width[k + 1]]
                keys = _byte_keys(keys)
                keep = np.ones(keys.size, dtype=bool)
                for j in range(k + 1):
                    dropped = _byte_keys(np.delete(above, j, axis=1))
                    at = np.minimum(np.searchsorted(keys, dropped), keys.size - 1)
                    keep[at[keys[at] == dropped]] = False
                rows, supports = np.compress(keep, rows, axis=0), supports[keep]
            out += _itemsets(rows, supports)
        return out

    # -- comparisons ----------------------------------------------------------------

    def same_itemsets(self, other: "MiningResult") -> bool:
        """True when both runs found identical itemsets *and* supports."""
        return len(self.levels) == len(other.levels) and all(
            np.array_equal(a, c) and np.array_equal(b, d)
            for (a, b), (c, d) in zip(self.levels, other.levels)
        )

    def diff(self, other: "MiningResult") -> Dict[str, list]:
        """Human-oriented difference report for debugging mismatches."""
        ours, theirs = self._view(), other._view()
        return {
            "only_self": sorted(ours.keys() - theirs.keys())[:20],
            "only_other": sorted(theirs.keys() - ours.keys())[:20],
            "support_mismatch": sorted(
                t for t in ours.keys() & theirs.keys() if ours[t] != theirs[t]
            )[:20],
        }

    def __repr__(self) -> str:
        return (
            f"MiningResult(n_itemsets={len(self)}, max_size={self.max_size()}, "
            f"min_support={self.min_support}, algorithm="
            f"{self.metrics.algorithm!r})"
        )

    # -- serialization ----------------------------------------------------------

    def to_dict(self, include_metrics: bool = True) -> Dict:
        """Plain-dict form of the result (the wire format).

        This is the single serializer shared by :meth:`to_json`, the
        ``gpapriori mine --json`` CLI mode, the mining service's result
        cache, and the HTTP endpoint — so batch and served results are
        structurally identical. Itemsets are emitted in sorted order,
        making the document deterministic for a given result.

        ``include_metrics=False`` omits the run-dependent provenance
        (wall/modeled seconds, counters, generations), leaving only
        fields that are a pure function of the mined itemsets — the
        form two runs of the same query can be compared on.

        >>> r = MiningResult({(0,): 3, (0, 2): 2}, n_transactions=4, min_support=2)
        >>> doc = r.to_dict(include_metrics=False)
        >>> doc["itemsets"]
        [[[0], 3], [[0, 2], 2]]
        >>> MiningResult.from_dict(doc).same_itemsets(r)
        True
        """
        doc: Dict = {
            "format": "repro.mining_result/1",
            "n_transactions": self.n_transactions,
            "min_support": self.min_support,
            "algorithm": self.metrics.algorithm,
            "itemsets": self._sorted_pairs(),
        }
        if include_metrics:
            doc.update(
                wall_seconds=self.metrics.wall_seconds,
                modeled_seconds=self.metrics.modeled_seconds,
                generations=list(self.metrics.generations),
                counters=self.metrics.counters,
            )
        return doc

    def _sorted_pairs(self) -> list:
        """``[items, support]`` lists in item-tuple order.

        Each level is already sorted, so the sort merges one run per
        size. It stays in Python: served requests each run on a new
        thread, where every NumPy call costs several microseconds more.
        """
        pairs = []
        for rows, supports in self.levels:
            pairs += zip(rows.tolist(), supports.tolist())
        return [[items, support] for items, support in sorted(pairs)]

    @classmethod
    def from_dict(cls, doc: Mapping) -> "MiningResult":
        """Rebuild a result from a :meth:`to_dict` document.

        Round-trips itemsets, supports, and run attributes; raises
        :class:`~repro.errors.MiningError` for anything that is not a
        ``repro.mining_result/1`` document.

        >>> r = MiningResult({(1, 2): 5}, n_transactions=9, min_support=4)
        >>> back = MiningResult.from_dict(r.to_dict())
        >>> (back.support_of((1, 2)), back.n_transactions, back.min_support)
        (5, 9, 4)
        """
        if not isinstance(doc, Mapping) or doc.get("format") != "repro.mining_result/1":
            raise MiningError("not a serialized MiningResult document")
        try:
            raw_itemsets = doc["itemsets"]
            n_transactions = int(doc["n_transactions"])
            min_support = int(doc["min_support"])
        except (KeyError, TypeError, ValueError) as exc:
            raise MiningError(f"malformed MiningResult document: {exc}") from None
        metrics = RunMetrics(
            algorithm=doc.get("algorithm", ""),
            wall_seconds=doc.get("wall_seconds", 0.0),
            modeled_seconds=doc.get("modeled_seconds"),
            counters=dict(doc.get("counters", {})),
            generations=list(doc.get("generations", [])),
        )
        itemsets = {
            tuple(int(i) for i in items): int(support)
            for items, support in raw_itemsets
        }
        return cls(
            itemsets,
            n_transactions=n_transactions,
            min_support=min_support,
            metrics=metrics,
        )

    def to_json(self) -> str:
        """Serialize itemsets + run metadata as a JSON document.

        Metrics are included for provenance (which algorithm, what
        costs); the trie/engine internals are not, so a loaded result
        supports queries and rule generation but not resumption.
        """
        import json

        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "MiningResult":
        """Load a result serialized by :meth:`to_json`."""
        import json

        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MiningError(f"not valid JSON: {exc}") from None
        return cls.from_dict(doc)
