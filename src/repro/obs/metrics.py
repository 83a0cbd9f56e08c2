"""Unified counters, gauges, and histograms for mining runs.

The :class:`MetricsRegistry` is the one store every count lives in:
``RunMetrics`` delegates its counters here, the simulated engine adds
its ``kernel.*`` and ``coalescing.*`` counters as it launches, and the
service records its request metrics into its own registry, so one
snapshot describes everything that happened.

The registry is also what the live service exports: every counter,
gauge, and histogram renders to Prometheus text exposition through
:mod:`repro.obs.promexpo`, and histograms carry fixed log-spaced
buckets so p50/p90/p99 latency quantiles are available without storing
raw observations.

Zero dependencies; safe to import from anywhere in the package.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = ["BUCKET_BOUNDS", "HistogramSummary", "LabelKey", "MetricsRegistry"]

BUCKET_BOUNDS: Tuple[float, ...] = tuple(2.0**e for e in range(-30, 21))
"""Fixed log2-spaced histogram bucket upper bounds (inclusive).

Spanning ~1 ns to ~1 M (seconds, mostly — the registry's histograms
record durations and modeled costs), with one implicit overflow bucket
above the last bound. *Fixed* bounds put every exported histogram on
one grid, so a Prometheus scraper can add bucket counts across series
and scrapes, and quantiles need no stored observations.
"""

LabelKey = Tuple[Tuple[str, str], ...]
"""Canonical hashable form of a label set: sorted (name, value) pairs."""


def _label_key(labels: Optional[Mapping[str, object]]) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class HistogramSummary:
    """Streaming log-bucketed histogram of observed values.

    Keeps the exact four-number summary (count / sum / min / max) the
    mining pipeline has always used, plus per-bucket counts over the
    fixed :data:`BUCKET_BOUNDS` grid so latency quantiles (p50 / p90 /
    p99) can be estimated and exported live. Observation is O(log
    buckets).

    >>> h = HistogramSummary()
    >>> for v in (1.0, 2.0, 3.0, 4.0):
    ...     h.observe(v)
    >>> d = h.as_dict()
    >>> (d["count"], d["sum"], d["min"], d["max"])
    (4, 10.0, 1.0, 4.0)
    >>> d["sum"] / d["count"] == d["mean"]
    True
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        # one slot per bound plus the +Inf overflow bucket
        self.buckets = [0] * (len(BUCKET_BOUNDS) + 1)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.buckets[bisect_left(BUCKET_BOUNDS, value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def sum(self) -> float:
        """Alias of ``total`` under Prometheus' conventional name."""
        return self.total

    # -- quantiles ----------------------------------------------------------

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 <= q <= 1) of the observations.

        Walks the cumulative bucket counts to the target rank and
        interpolates linearly inside the landing bucket; the estimate
        is clamped to the exact observed [min, max], so single-value
        histograms report that value for every quantile.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for i, n in enumerate(self.buckets):
            if n == 0:
                continue
            if cumulative + n >= target:
                lo = BUCKET_BOUNDS[i - 1] if i > 0 else self.min
                hi = BUCKET_BOUNDS[i] if i < len(BUCKET_BOUNDS) else self.max
                fraction = (target - cumulative) / n
                estimate = lo + (hi - lo) * max(0.0, min(1.0, fraction))
                return max(self.min, min(self.max, estimate))
            cumulative += n
        return self.max  # pragma: no cover - unreachable when counts agree

    def percentiles(self) -> Dict[str, float]:
        """The exported latency quantiles: p50 / p90 / p99."""
        return {
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }

    def bucket_counts(self) -> Iterable[Tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, Prometheus-style.

        The final pair's bound is ``float("inf")`` and its count equals
        :attr:`count`. Empty trailing buckets are included — exposition
        needs the full fixed grid to stay additive across scrapes.
        """
        cumulative = 0
        out = []
        for i, n in enumerate(self.buckets):
            cumulative += n
            bound = BUCKET_BOUNDS[i] if i < len(BUCKET_BOUNDS) else float("inf")
            out.append((bound, cumulative))
        return out

    def as_dict(self) -> Dict[str, float]:
        d = {
            "count": self.count,
            "sum": self.total,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }
        d.update(self.percentiles())
        return d

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"HistogramSummary(count={self.count}, total={self.total})"


class MetricsRegistry:
    """Thread-safe registry of named counters, gauges, and histograms.

    * **counters** — monotonically accumulated integers
      (``bitset_words_anded``, ``kernel.launches``);
    * **gauges** — last-written values (``device_bytes_in_use``);
    * **histograms** — :class:`HistogramSummary` of repeated
      observations (shard stream seconds, query latencies).

    Each kind keeps one table keyed by ``(name, label key)``. A
    ``labels`` mapping picks one series of a name — ``inc
    ("http.requests", labels={"path": "/mine", "status": "200"})`` —
    and the unlabeled series sits under the empty key ``()``. The
    Prometheus exposition renders each series as one sample:

    >>> reg = MetricsRegistry()
    >>> reg.inc("http.requests")
    1
    >>> reg.inc("http.requests", 2, labels={"status": "200"})
    2
    >>> snap = reg.snapshot()
    >>> snap["counters"]
    {'http.requests': 1}
    >>> snap["labeled"]["counters"]
    {'http.requests': {'status="200"': 2}}
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tables: Dict[str, Dict[Tuple[str, LabelKey], object]] = {
            "counters": {}, "gauges": {}, "histograms": {}
        }
        self._counters = self._tables["counters"]
        self._gauges = self._tables["gauges"]
        self._histograms = self._tables["histograms"]
        self._watches: List[Dict[str, int]] = []

    # -- counters ---------------------------------------------------------------

    def inc(
        self,
        name: str,
        amount: int = 1,
        labels: Optional[Mapping[str, object]] = None,
    ) -> int:
        """Add ``amount`` to a counter; returns the new value."""
        key = (name, _label_key(labels))
        with self._lock:
            value = self._counters.get(key, 0) + int(amount)
            self._counters[key] = value
            if not key[1]:
                for delta in self._watches:
                    delta[name] = delta.get(name, 0) + int(amount)
        return value

    def watch_counters(self) -> Dict[str, int]:
        """Start collecting unlabeled counter increments.

        Returns the dict they collect into; end with
        :meth:`unwatch_counters`. The service's flight recorder takes
        each query's counter delta this way, without copying the whole
        table before and after.
        """
        delta: Dict[str, int] = {}
        with self._lock:
            self._watches.append(delta)
        return delta

    def unwatch_counters(self, delta: Dict[str, int]) -> Dict[str, int]:
        """Stop a :meth:`watch_counters` watch; returns its nonzero deltas."""
        with self._lock:
            self._watches = [w for w in self._watches if w is not delta]
            return {name: value for name, value in delta.items() if value}

    def counter(self, name: str, labels: Optional[Mapping[str, object]] = None) -> int:
        return self._counters.get((name, _label_key(labels)), 0)

    @property
    def counters(self) -> Dict[str, int]:
        """A copy of the unlabeled counters; add to them with :meth:`inc`."""
        with self._lock:
            return _unlabeled(self._counters)

    # -- gauges -------------------------------------------------------------------

    def set_gauge(
        self,
        name: str,
        value: float,
        labels: Optional[Mapping[str, object]] = None,
    ) -> None:
        key = (name, _label_key(labels))
        with self._lock:
            self._gauges[key] = value

    def gauge(
        self,
        name: str,
        default: float = 0.0,
        labels: Optional[Mapping[str, object]] = None,
    ) -> float:
        return self._gauges.get((name, _label_key(labels)), default)

    @property
    def gauges(self) -> Dict[str, float]:
        """A copy of the unlabeled gauges; write them with :meth:`set_gauge`."""
        with self._lock:
            return _unlabeled(self._gauges)

    # -- histograms ----------------------------------------------------------------

    def observe(
        self,
        name: str,
        value: float,
        labels: Optional[Mapping[str, object]] = None,
    ) -> None:
        key = (name, _label_key(labels))
        # The summary update must happen inside the lock: two racing
        # observers could otherwise interleave count/total/bucket
        # writes and lose observations.
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = HistogramSummary()
            hist.observe(value)

    def histogram(
        self, name: str, labels: Optional[Mapping[str, object]] = None
    ) -> HistogramSummary | None:
        return self._histograms.get((name, _label_key(labels)))

    # -- whole tables ----------------------------------------------------------------

    def table(self, kind: str) -> List[Tuple[Tuple[str, LabelKey], object]]:
        """Copy of one table, ``kind`` in counters/gauges/histograms.

        Each ``((name, label key), value)`` pair is one series, in the
        order the series first appeared; histogram values are the live
        :class:`HistogramSummary` objects.
        """
        with self._lock:
            return list(self._tables[kind].items())

    def snapshot(self) -> Dict[str, Dict]:
        """JSON-ready copy of everything the registry holds.

        Labeled series appear under ``labeled`` keyed by kind and metric
        name, each label set rendered as a ``k="v",...`` string.
        """
        doc: Dict[str, Dict] = {}
        labeled: Dict[str, Dict] = {}
        with self._lock:
            for kind, table in self._tables.items():
                doc[kind] = {}
                for (name, key), value in table.items():
                    if isinstance(value, HistogramSummary):
                        value = value.as_dict()
                    if not key:
                        doc[kind][name] = value
                        continue
                    label_str = ",".join(f'{k}="{v}"' for k, v in key)
                    labeled.setdefault(kind, {}).setdefault(name, {})[label_str] = value
        if labeled:
            doc["labeled"] = labeled
        return doc

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, histograms={len(self._histograms)})"
        )


def _unlabeled(table: Dict[Tuple[str, LabelKey], object]) -> Dict[str, object]:
    return {name: value for (name, key), value in table.items() if not key}
