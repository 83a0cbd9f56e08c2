"""ResultCache: threshold coverage, TTL, byte budget, metrics."""

import pytest

from repro.core.api import mine
from repro.core.itemset import MiningResult
from repro.datasets import TransactionDatabase
from repro.errors import ServiceError
from repro.service import ResultCache
from repro.service.cache import CachedEntry, filter_result, result_bytes


@pytest.fixture
def db():
    return TransactionDatabase(
        [[0, 1, 2], [0, 1], [0, 2], [1, 2], [0, 1, 2, 3], [0, 3]]
    )


KEY = ("toy", "gpapriori", ())


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCoverage:
    def test_exact_hit_returns_same_object(self, db):
        cache = ResultCache()
        result = mine(db, 2)
        cache.store(KEY, result, abs_support=2)
        hit = cache.lookup(KEY, 2)
        assert hit is not None
        got, kind = hit
        assert kind == "hit"
        assert got is result

    def test_miss_on_other_key(self, db):
        cache = ResultCache()
        cache.store(KEY, mine(db, 2), abs_support=2)
        assert cache.lookup(("other", "gpapriori", ()), 2) is None

    def test_tighter_query_filtered_from_loose_run(self, db):
        cache = ResultCache()
        cache.store(KEY, mine(db, 1), abs_support=1)
        got, kind = cache.lookup(KEY, 3)
        assert kind == "filtered"
        assert got.same_itemsets(mine(db, 3))
        assert got.min_support == 3

    def test_looser_query_not_served_by_tight_run(self, db):
        cache = ResultCache()
        cache.store(KEY, mine(db, 4), abs_support=4)
        assert cache.lookup(KEY, 2) is None

    def test_loosest_covering_entry_not_required__tightest_wins(self, db):
        # with runs at 1 and 2 cached, a query at 3 filters the s=2 run
        # (smaller result to scan), still exactly
        cache = ResultCache()
        cache.store(KEY, mine(db, 1), abs_support=1)
        cache.store(KEY, mine(db, 2), abs_support=2)
        got, kind = cache.lookup(KEY, 3)
        assert kind == "filtered"
        assert got.same_itemsets(mine(db, 3))

    def test_max_k_capped_run_cannot_serve_uncapped_query(self, db):
        cache = ResultCache()
        cache.store(KEY, mine(db, 1, max_k=1), abs_support=1, max_k=1)
        assert cache.lookup(KEY, 2, max_k=None) is None
        assert cache.lookup(KEY, 2, max_k=2) is None

    def test_uncapped_run_serves_capped_query(self, db):
        cache = ResultCache()
        cache.store(KEY, mine(db, 1), abs_support=1, max_k=None)
        got, kind = cache.lookup(KEY, 2, max_k=1)
        assert kind == "filtered"
        assert got.same_itemsets(mine(db, 2, max_k=1))

    def test_capped_run_serves_equal_cap(self, db):
        cache = ResultCache()
        cache.store(KEY, mine(db, 1, max_k=2), abs_support=1, max_k=2)
        got, kind = cache.lookup(KEY, 1, max_k=2)
        assert kind == "hit"
        assert got.same_itemsets(mine(db, 1, max_k=2))


class TestFilterResult:
    def test_filter_is_exact(self, db):
        loose = mine(db, 1)
        for s in (2, 3, 4, 5):
            assert filter_result(loose, s, None).same_itemsets(mine(db, s))

    def test_filter_applies_max_k(self, db):
        loose = mine(db, 1)
        got = filter_result(loose, 2, 1)
        assert got.same_itemsets(mine(db, 2, max_k=1))

    def test_filtered_metrics_name_source_threshold(self, db):
        got = filter_result(mine(db, 1), 3, None)
        assert got.metrics.counters["service.cache_filtered_from"] == 1
        assert got.metrics.algorithm == "gpapriori"


class TestEviction:
    def test_ttl_expiry(self, db):
        clock = FakeClock()
        cache = ResultCache(ttl_seconds=10.0, clock=clock)
        cache.store(KEY, mine(db, 2), abs_support=2)
        clock.now = 5.0
        assert cache.lookup(KEY, 2) is not None
        clock.now = 10.5
        assert cache.lookup(KEY, 2) is None
        assert cache.metrics.counter("service.cache.expired") == 1
        assert len(cache) == 0

    def test_byte_budget_evicts_lru(self, db):
        r = mine(db, 2)
        budget = result_bytes(r) + result_bytes(r) // 2  # fits one, not two
        cache = ResultCache(budget_bytes=budget)
        cache.store(("a",), r, 2)
        cache.store(("b",), r, 2)
        assert cache.lookup(("a",), 2) is None
        assert cache.lookup(("b",), 2) is not None
        assert cache.metrics.counter("service.cache.evictions") == 1

    def test_oversize_result_skipped(self, db):
        r = mine(db, 1)
        cache = ResultCache(budget_bytes=16)
        cache.store(KEY, r, 1)
        assert len(cache) == 0
        assert cache.metrics.counter("service.cache.oversize_skipped") == 1

    def test_store_same_query_overwrites(self, db):
        cache = ResultCache()
        cache.store(KEY, mine(db, 2), 2)
        cache.store(KEY, mine(db, 2), 2)
        assert len(cache) == 1

    def test_clear(self, db):
        cache = ResultCache()
        cache.store(KEY, mine(db, 2), 2)
        cache.clear()
        assert len(cache) == 0


class TestMetricsAndValidation:
    def test_hit_miss_filter_counters(self, db):
        cache = ResultCache()
        cache.lookup(KEY, 2)
        cache.store(KEY, mine(db, 2), 2)
        cache.lookup(KEY, 2)
        cache.lookup(KEY, 4)
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["filtered_hits"] == 1

    def test_bad_budget_rejected(self):
        with pytest.raises(ServiceError):
            ResultCache(budget_bytes=0)
        with pytest.raises(ServiceError):
            ResultCache(ttl_seconds=0)

    def test_result_bytes_scales_with_itemsets(self):
        small = MiningResult({(0,): 1}, n_transactions=2, min_support=1)
        big = MiningResult(
            {(i,): 1 for i in range(50)}, n_transactions=2, min_support=1
        )
        assert result_bytes(big) > result_bytes(small)

    def test_result_bytes_keeps_the_per_itemset_formula(self, db):
        """Priced from level shapes, the estimate equals the per-tuple
        sum, so eviction decisions do not move; storing builds no dict."""
        result = mine(db, 2)
        assert len({len(t) for t in result.as_dict()}) > 1
        fresh = mine(db, 2)
        assert result_bytes(fresh) == 256 + sum(
            64 + 8 * len(items) for items in result.as_dict()
        )
        ResultCache().store(KEY, fresh, 2)
        assert fresh._dict is None

    def test_covers_logic(self):
        r = MiningResult({}, n_transactions=5, min_support=2)
        entry = CachedEntry(r, abs_support=2, max_k=None, inserted_at=0.0, nbytes=1)
        assert entry.covers(2, None) and entry.covers(4, 3)
        assert not entry.covers(1, None)
        capped = CachedEntry(r, abs_support=2, max_k=3, inserted_at=0.0, nbytes=1)
        assert capped.covers(2, 3) and capped.covers(3, 2)
        assert not capped.covers(2, None) and not capped.covers(2, 4)
