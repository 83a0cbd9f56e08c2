"""Threshold-aware result cache: answer tight queries from loose runs.

The anti-monotone heart of Apriori doubles as a cache law: a result
mined at absolute support ``s'`` contains *every* itemset frequent at
any ``s >= s'``, with its exact support. So a cached run at a looser
threshold answers a tighter query **exactly** — filter the itemsets to
``support >= s`` (and to ``len <= max_k`` when the query caps length)
and the result is bit-identical to a cold mine at ``s``. The property
suite asserts that identity across all three engines.

Entries are keyed by the *query identity that affects results*: the
dataset, the algorithm, and the canonical option signature (engine,
plan, shards, ... — all of which must produce identical itemsets, but
are kept separate so the cache never hides an engine-equivalence bug).
Within a key the cache keeps one entry per (absolute support, max_k)
pair and serves the loosest covering entry.

Eviction is two-tier: entries past ``ttl_seconds`` are dropped on
sight, and the global LRU order is trimmed whenever the estimated
resident bytes exceed ``budget_bytes``. Hit / filtered-hit / miss /
eviction counts are published as ``service.cache.*`` metrics.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

from ..core.itemset import MiningResult
from ..errors import ServiceError
from ..obs import span
from ..obs.metrics import MetricsRegistry

__all__ = ["CachedEntry", "ResultCache", "filter_result", "result_bytes"]


def result_bytes(result: MiningResult) -> int:
    """Estimated resident bytes of a cached result.

    Priced as if each itemset were a Python tuple: 64 bytes per itemset
    plus 8 per item, deliberately on the high side so the byte budget
    errs toward evicting early rather than blowing past. Read from the
    level shapes, so storing a result never builds its dict view.
    """
    return 256 + sum(n * (64 + 8 * k) for n, k in (rows.shape for rows, _ in result.levels))


def filter_result(
    result: MiningResult, abs_support: int, max_k: Optional[int]
) -> MiningResult:
    """Project a loose result down to a tighter threshold / length cap.

    Exact by anti-monotonicity: every itemset frequent at
    ``abs_support`` already appears in ``result`` (mined at a looser
    threshold) with its exact support, so keeping ``support >=
    abs_support`` (and ``len <= max_k``) reproduces the cold run:
    :meth:`~repro.core.itemset.MiningResult.at_least`, one support mask
    per cached level, with no itemset dict built.
    """
    filtered = result.at_least(abs_support, max_k)
    filtered.metrics.add_counter("service.cache_filtered_from", result.min_support)
    return filtered


@dataclass
class CachedEntry:
    """One cached mining run plus its coverage bounds."""

    result: MiningResult
    abs_support: int
    max_k: Optional[int]
    inserted_at: float
    nbytes: int

    def covers(self, abs_support: int, max_k: Optional[int]) -> bool:
        """Whether this entry can answer the given query exactly.

        Support: the cached run must be at least as loose. Length: the
        cached run must be uncapped, or capped no tighter than the
        query (an uncapped query can only be served by an uncapped
        run).
        """
        if self.abs_support > abs_support:
            return False
        if self.max_k is None:
            return True
        return max_k is not None and max_k <= self.max_k

    def is_exact(self, abs_support: int, max_k: Optional[int]) -> bool:
        return self.abs_support == abs_support and self.max_k == max_k


class ResultCache:
    """Thread-safe LRU+TTL cache of :class:`MiningResult` documents.

    Parameters
    ----------
    budget_bytes:
        Estimated-byte budget across all entries (``None`` = unbounded).
    ttl_seconds:
        Entry lifetime (``None`` = immortal). Expiry is checked lazily
        at lookup and store time.
    metrics:
        Shared registry receiving ``service.cache.*`` counters.
    clock:
        Injectable monotonic clock (tests freeze TTL behaviour with it).
    """

    def __init__(
        self,
        budget_bytes: Optional[int] = None,
        ttl_seconds: Optional[float] = None,
        metrics: Optional[MetricsRegistry] = None,
        clock=time.monotonic,
    ) -> None:
        if budget_bytes is not None and budget_bytes < 1:
            raise ServiceError(
                f"budget_bytes must be a positive int or None, got {budget_bytes!r}"
            )
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ServiceError(
                f"ttl_seconds must be positive or None, got {ttl_seconds!r}"
            )
        self.budget_bytes = budget_bytes
        self.ttl_seconds = ttl_seconds
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.clock = clock
        self._lock = threading.Lock()
        # (key, abs_support, max_k) -> CachedEntry, in LRU order.
        self._entries: "OrderedDict[Tuple[Hashable, int, Optional[int]], CachedEntry]"
        self._entries = OrderedDict()

    # -- internals ----------------------------------------------------------

    def _expired(self, entry: CachedEntry, now: float) -> bool:
        return self.ttl_seconds is not None and now - entry.inserted_at > self.ttl_seconds

    def _sweep_expired(self, now: float) -> int:
        """Drop expired entries (lock held by caller); returns count dropped."""
        if self.ttl_seconds is None:
            return 0
        dead = [k for k, e in self._entries.items() if self._expired(e, now)]
        for k in dead:
            del self._entries[k]
            self.metrics.inc("service.cache.expired")
        return len(dead)

    def _publish_gauges(self) -> None:
        self.metrics.set_gauge(
            "service.cache.resident_bytes",
            sum(e.nbytes for e in self._entries.values()),
        )
        self.metrics.set_gauge("service.cache.entries", len(self._entries))

    # -- lookup -------------------------------------------------------------

    def lookup(
        self, key: Hashable, abs_support: int, max_k: Optional[int] = None
    ) -> Optional[Tuple[MiningResult, str]]:
        """Find a result answering the query, or ``None``.

        Returns ``(result, kind)`` where ``kind`` is ``"hit"`` for an
        exact-threshold entry returned as-is, or ``"filtered"`` for an
        answer projected down from a looser cached run. Among covering
        entries the one with the highest cached threshold wins — it is
        the smallest result to filter.
        """
        now = self.clock()
        with self._lock:
            self._sweep_expired(now)
            best_key = None
            best: Optional[CachedEntry] = None
            for full_key, entry in self._entries.items():
                if full_key[0] != key or not entry.covers(abs_support, max_k):
                    continue
                if entry.is_exact(abs_support, max_k):
                    best_key, best = full_key, entry
                    break
                if best is None or entry.abs_support > best.abs_support:
                    best_key, best = full_key, entry
            if best is None:
                self.metrics.inc("service.cache.misses")
                return None
            self._entries.move_to_end(best_key)
            cached = best.result
            exact = best.is_exact(abs_support, max_k)
        # Filtering happens outside the lock: it only reads the cached
        # result's levels, which are read-only arrays.
        if exact:
            self.metrics.inc("service.cache.hits")
            return cached, "hit"
        with span(
            "service.cache_filter",
            cached_support=best.abs_support,
            abs_support=abs_support,
        ):
            filtered = filter_result(cached, abs_support, max_k)
        self.metrics.inc("service.cache.filtered_hits")
        return filtered, "filtered"

    # -- store --------------------------------------------------------------

    def store(
        self,
        key: Hashable,
        result: MiningResult,
        abs_support: int,
        max_k: Optional[int] = None,
    ) -> None:
        """Insert a mined result and trim the cache to budget."""
        now = self.clock()
        self._insert(key, result, abs_support, max_k, now, now, "service.cache.stores")

    def restore(
        self,
        key: Hashable,
        result: MiningResult,
        abs_support: int,
        max_k: Optional[int] = None,
        age_seconds: float = 0.0,
    ) -> bool:
        """Re-insert a snapshotted entry, backdated by its age at snapshot.

        Used by :mod:`repro.store.snapshot` on warm start: the entry's
        remaining TTL carries across the restart instead of resetting,
        so a snapshot taken moments before expiry does not resurrect a
        stale result for a full fresh lifetime. Returns ``False`` when
        the entry is already expired (or over budget) and was skipped.
        """
        now = self.clock()
        inserted_at = now - max(0.0, float(age_seconds))
        return self._insert(
            key, result, abs_support, max_k, inserted_at, now, "service.cache.restored"
        )

    def _insert(self, key, result, abs_support, max_k, inserted_at, now, counter) -> bool:
        """Add one live entry, drop expired ones and trim LRU order to budget."""
        entry = CachedEntry(result, abs_support, max_k, inserted_at, result_bytes(result))
        if self._expired(entry, now):
            return False
        if self.budget_bytes is not None and entry.nbytes > self.budget_bytes:
            # A single result bigger than the whole budget would evict
            # everything and then itself be the next victim; skip it.
            self.metrics.inc("service.cache.oversize_skipped")
            return False
        with self._lock:
            self._sweep_expired(now)
            full_key = (key, abs_support, max_k)
            self._entries[full_key] = entry
            self._entries.move_to_end(full_key)
            self.metrics.inc(counter)
            if self.budget_bytes is not None:
                total = sum(e.nbytes for e in self._entries.values())
                while total > self.budget_bytes and len(self._entries) > 1:
                    victim_key = next(k for k in self._entries if k != full_key)
                    victim = self._entries.pop(victim_key)
                    total -= victim.nbytes
                    self.metrics.inc("service.cache.evictions")
            self._publish_gauges()
        return True

    # -- maintenance --------------------------------------------------------

    def sweep(self) -> int:
        """Drop expired entries now; returns how many were released.

        ``lookup()``/``store()`` sweep lazily, which means a long-idle
        serve process would pin expired bytes forever. The service's
        maintenance loop (and ``stats()``) call this periodically so
        TTL expiry actually releases memory on an idle instance.
        """
        with self._lock:
            dropped = self._sweep_expired(self.clock())
            if dropped:
                self._publish_gauges()
            return dropped

    def invalidate(self, predicate) -> int:
        """Drop every entry whose cache key satisfies ``predicate``.

        ``predicate`` receives the caller-supplied ``key`` (the first
        element of the internal ``(key, abs_support, max_k)`` tuple).
        The registry uses this to couple dataset eviction to cache
        invalidation. Returns the number of entries dropped.
        """
        with self._lock:
            dead = [k for k in self._entries if predicate(k[0])]
            for k in dead:
                del self._entries[k]
                self.metrics.inc("service.cache.invalidated")
            if dead:
                self._publish_gauges()
            return len(dead)

    def entries_snapshot(self):
        """A point-in-time list of ``(full_key, entry)`` pairs.

        Entries already expired at snapshot time are excluded; the
        snapshot writer persists the rest with their age so TTL
        semantics survive a restart.
        """
        now = self.clock()
        with self._lock:
            return [
                (full_key, entry)
                for full_key, entry in self._entries.items()
                if not self._expired(entry, now)
            ]

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._publish_gauges()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict:
        self.sweep()  # periodic hook: polling stats keeps TTL honest
        with self._lock:
            return {
                "entries": len(self._entries),
                "resident_bytes": sum(e.nbytes for e in self._entries.values()),
                "budget_bytes": self.budget_bytes,
                "ttl_seconds": self.ttl_seconds,
                "hits": self.metrics.counter("service.cache.hits"),
                "filtered_hits": self.metrics.counter("service.cache.filtered_hits"),
                "misses": self.metrics.counter("service.cache.misses"),
                "evictions": self.metrics.counter("service.cache.evictions"),
            }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ResultCache(entries={len(self)}, budget_bytes={self.budget_bytes})"
