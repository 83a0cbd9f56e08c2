"""MetricsRegistry behaviour and its integration with RunMetrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bitset.bitset import BitsetMatrix
from repro.core.config import GPAprioriConfig
from repro.core.itemset import RunMetrics
from repro.core.support import SimulatedEngine, VectorizedEngine
from repro.datasets import TransactionDatabase
from repro.obs import HistogramSummary, MetricsRegistry


class TestRegistry:
    def test_counters(self):
        reg = MetricsRegistry()
        assert reg.inc("launches") == 1
        assert reg.inc("launches", 4) == 5
        assert reg.counter("launches") == 5
        assert reg.counter("missing") == 0
        assert reg.counters == {"launches": 5}

    def test_watch_counters_collects_unlabeled_increments_until_unwatched(self):
        reg = MetricsRegistry()
        reg.inc("before")
        outer = reg.watch_counters()
        reg.inc("a", 2)
        inner = reg.watch_counters()
        reg.inc("a")
        reg.inc("zero", 0)
        reg.inc("a", labels={"route": "/mine"})
        assert reg.unwatch_counters(inner) == {"a": 1}
        reg.inc("b")
        assert reg.unwatch_counters(outer) == {"a": 3, "b": 1}
        reg.inc("a")
        assert outer == {"a": 3, "zero": 0, "b": 1}  # no longer collecting

    def test_gauges(self):
        reg = MetricsRegistry()
        reg.set_gauge("bytes_in_use", 100.0)
        reg.set_gauge("bytes_in_use", 42.0)
        assert reg.gauge("bytes_in_use") == 42.0
        assert reg.gauge("missing", default=-1.0) == -1.0

    def test_histograms(self):
        reg = MetricsRegistry()
        for v in (1.0, 3.0, 2.0):
            reg.observe("launch_seconds", v)
        hist = reg.histogram("launch_seconds")
        assert hist is not None
        assert hist.count == 3
        assert hist.total == pytest.approx(6.0)
        assert hist.mean == pytest.approx(2.0)
        assert hist.min == 1.0
        assert hist.max == 3.0
        assert reg.histogram("missing") is None

    def test_snapshot_is_a_copy(self):
        reg = MetricsRegistry()
        reg.inc("c", 1)
        reg.set_gauge("g", 2.0)
        reg.observe("h", 3.0)
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 1}
        assert snap["gauges"] == {"g": 2.0}
        assert snap["histograms"]["h"]["count"] == 1
        snap["counters"]["c"] = 99
        assert reg.counter("c") == 1


class TestHistogramSummary:
    def test_empty_as_dict(self):
        h = HistogramSummary()
        d = h.as_dict()
        assert d["count"] == 0
        assert d["min"] == 0.0 and d["max"] == 0.0
        assert h.mean == 0.0


class TestHistogramBuckets:
    def test_as_dict_has_sum_and_quantiles(self):
        h = HistogramSummary()
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        d = h.as_dict()
        assert d["sum"] == pytest.approx(10.0)
        assert d["sum"] == d["total"]  # back-compat alias
        for key in ("p50", "p90", "p99"):
            assert key in d

    def test_quantiles_clamped_to_observed_range(self):
        h = HistogramSummary()
        h.observe(3.0)
        assert h.quantile(0.0) == 3.0
        assert h.quantile(0.5) == 3.0
        assert h.quantile(1.0) == 3.0

    def test_quantile_ordering(self):
        h = HistogramSummary()
        for i in range(1, 101):
            h.observe(i / 100.0)
        p50, p90, p99 = h.quantile(0.5), h.quantile(0.9), h.quantile(0.99)
        assert p50 <= p90 <= p99
        # log-bucket interpolation is coarse but must land in the right
        # neighborhood
        assert 0.2 <= p50 <= 0.8
        assert p99 <= 1.0

    def test_quantile_validates_range(self):
        with pytest.raises(ValueError):
            HistogramSummary().quantile(1.5)

    def test_empty_quantile(self):
        assert HistogramSummary().quantile(0.9) == 0.0

    def test_bucket_counts_cumulative(self):
        h = HistogramSummary()
        for v in (0.5, 1.0, 2.0, 1e30):  # last lands in the +Inf bucket
            h.observe(v)
        pairs = list(h.bucket_counts())
        values = [c for _, c in pairs]
        assert values == sorted(values)
        bound, cumulative = pairs[-1]
        assert bound == float("inf")
        assert cumulative == 4


class TestLabels:
    def test_labeled_counters_independent(self):
        reg = MetricsRegistry()
        reg.inc("req", labels={"path": "/a"})
        reg.inc("req", 2, labels={"path": "/b"})
        reg.inc("req", 10)  # unlabeled is a separate series
        assert reg.counter("req", labels={"path": "/a"}) == 1
        assert reg.counter("req", labels={"path": "/b"}) == 2
        assert reg.counter("req") == 10

    def test_label_order_is_canonical(self):
        reg = MetricsRegistry()
        reg.inc("req", labels={"a": 1, "b": 2})
        reg.inc("req", labels={"b": 2, "a": 1})
        assert reg.counter("req", labels={"a": 1, "b": 2}) == 2

    def test_labeled_gauge_and_histogram(self):
        reg = MetricsRegistry()
        reg.set_gauge("g", 5.0, labels={"shard": "0"})
        reg.observe("h", 1.0, labels={"engine": "simulated"})
        assert reg.gauge("g", labels={"shard": "0"}) == 5.0
        assert reg.histogram("h", labels={"engine": "simulated"}).count == 1
        assert reg.histogram("h") is None

    def test_snapshot_includes_labeled(self):
        reg = MetricsRegistry()
        reg.inc("req", labels={"path": "/a"})
        snap = reg.snapshot()
        assert snap["labeled"]["counters"]["req"] == {'path="/a"': 1}


class TestRunMetricsIntegration:
    def test_counters_backed_by_registry(self):
        m = RunMetrics(algorithm="demo")
        m.add_counter("candidates", 10)
        m.add_counter("candidates", 5)
        assert m.counters["candidates"] == 15
        assert m.registry.counter("candidates") == 15

    def test_constructor_seeds_counters(self):
        m = RunMetrics(algorithm="demo", counters={"a": 1, "b": 2})
        assert m.counters == {"a": 1, "b": 2}

    def test_add_modeled_keeps_one_copy(self):
        """Modeled seconds live in the breakdown; no histogram repeats them."""
        m = RunMetrics(algorithm="demo")
        m.add_modeled("kernel", 0.25)
        m.add_modeled("kernel", 0.75)
        assert m.modeled_seconds == pytest.approx(1.0)
        assert m.modeled_breakdown["kernel"] == pytest.approx(1.0)
        assert m.registry.snapshot()["histograms"] == {}

    def test_kernel_stats_publish(self):
        """A simulated launch adds its figures to the run's kernel.* counters."""
        db = TransactionDatabase([[0, 1], [0, 1, 2], [1, 2], [0, 2]], n_items=3)
        matrix = BitsetMatrix.from_database(db)
        m = RunMetrics(algorithm="demo")
        eng = SimulatedEngine(GPAprioriConfig(engine="simulated", block_size=8), m)
        eng.setup(matrix)
        eng.count_complete(np.array([[0, 1], [1, 2], [0, 2]]))
        eng.count_complete(np.array([[0, 1, 2]]))
        n_words = matrix.n_words
        assert m.counters["kernel.launches"] == 2
        assert m.counters["kernel.blocks"] == 4
        assert m.counters["kernel.threads"] == 4 * eng._block_dim()
        assert m.counters["kernel.barriers"] > 0
        assert m.counters["kernel.candidate_words"] == (3 * 2 + 1 * 3) * n_words
        assert m.counters["kernel.popcounts"] == 4 * n_words
        # only the simulator launches kernels: other engines publish none
        vec = RunMetrics(algorithm="demo")
        eng = VectorizedEngine(GPAprioriConfig(), vec)
        eng.setup(matrix)
        eng.count_complete(np.array([[0, 1]]))
        eng.finalize()
        assert not [n for n in vec.counters if n.startswith("kernel.")]
