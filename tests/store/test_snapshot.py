"""Result-cache snapshot/restore: warm answers that survive a restart."""

from __future__ import annotations

import json

import pytest

from repro.core.itemset import MiningResult
from repro.core.request import MiningRequest
from repro.datasets import TransactionDatabase
from repro.errors import StoreCorruptError
from repro.service import MiningService
from repro.service.cache import ResultCache
from repro.store import restore_result_cache, snapshot_result_cache


class FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


def make_result(supports=None, n_transactions=10, min_support=2):
    supports = supports if supports is not None else {(0,): 5, (0, 1): 3}
    return MiningResult(
        supports, n_transactions=n_transactions, min_support=min_support
    )


KEY = MiningRequest.build(
    0.5, "gpapriori", "chess", options={"engine": "vectorized", "unroll": 4}
).signature()


class TestRoundTrip:
    def test_entries_round_trip(self, tmp_path):
        cache = ResultCache()
        cache.store(KEY, make_result(), 2, None)
        cache.store(("toy", "eclat", ()), make_result({(1,): 7}), 3, 2)
        path = tmp_path / "snap.json"
        assert snapshot_result_cache(cache, path) == 2

        restored = ResultCache()
        assert restore_result_cache(restored, path) == 2
        hit = restored.lookup(KEY, 2, None)
        assert hit is not None and hit[1] == "hit"
        assert hit[0].as_dict() == make_result().as_dict()

    def test_nested_tuple_keys_round_trip_exactly(self, tmp_path):
        """Cache keys are nested tuples of primitives (the option
        signature); JSON would degrade them to lists, so the tagged
        encoding must bring back *tuples* or every lookup misses."""
        cache = ResultCache()
        cache.store(KEY, make_result(), 2, None)
        path = tmp_path / "snap.json"
        snapshot_result_cache(cache, path)
        restored = ResultCache()
        restore_result_cache(restored, path)
        (full_key, _entry), = restored.entries_snapshot()
        assert full_key == (KEY, 2, None)
        assert isinstance(full_key[0][2], tuple)
        assert isinstance(full_key[0][2][0], tuple)

    def test_missing_snapshot_restores_nothing(self, tmp_path):
        cache = ResultCache()
        assert restore_result_cache(cache, tmp_path / "absent.json") == 0
        assert len(cache) == 0

    def test_filtered_serving_after_restore(self, tmp_path):
        """A restored loose run still answers tighter queries exactly."""
        cache = ResultCache()
        cache.store(KEY, make_result({(0,): 5, (0, 1): 3}), 2, None)
        path = tmp_path / "snap.json"
        snapshot_result_cache(cache, path)
        restored = ResultCache()
        restore_result_cache(restored, path)
        hit = restored.lookup(KEY, 4, None)
        assert hit is not None and hit[1] == "filtered"
        assert hit[0].as_dict() == {(0,): 5}


    def test_keys_no_query_produces_are_skipped(self, tmp_path):
        """A key from an older build (here a partial config) would never
        hit; only the current query's key comes back."""
        db = TransactionDatabase([[0, 1, 2], [0, 1], [0, 2], [1, 2], [0, 1, 2, 3]])
        path = tmp_path / "snap.json"
        with MiningService(workers=1, maintenance_interval=None) as svc:
            svc.register_dataset("toy", db)
            assert svc.query("toy", 2).source == "cold"
            stale = ("toy", "gpapriori", (("block_size", 256),))
            svc.cache.store(stale, make_result(), 2, None)
            assert snapshot_result_cache(svc.cache, path) == 2
        with MiningService(workers=1, maintenance_interval=None) as svc:
            svc.register_dataset("toy", db)
            assert restore_result_cache(svc.cache, path) == 1
            assert svc.query("toy", 2).source == "cache"


class TestTtlSemantics:
    def test_age_carries_across_restart(self, tmp_path):
        """An entry 80 s old under a 100 s TTL has 20 s left — not a
        fresh 100 — after the restart."""
        clock = FakeClock(1000.0)
        cache = ResultCache(ttl_seconds=100, clock=clock)
        cache.store(KEY, make_result(), 2, None)
        clock.now = 1080.0  # 80 s later
        path = tmp_path / "snap.json"
        snapshot_result_cache(cache, path)

        restart_clock = FakeClock(5000.0)  # new process, new epoch
        restored = ResultCache(ttl_seconds=100, clock=restart_clock)
        assert restore_result_cache(restored, path) == 1
        assert restored.lookup(KEY, 2, None) is not None
        restart_clock.now = 5030.0  # 80 + 30 > 100: now expired
        assert restored.lookup(KEY, 2, None) is None

    def test_expired_entries_not_resurrected(self, tmp_path):
        clock = FakeClock(1000.0)
        cache = ResultCache(ttl_seconds=50, clock=clock)
        cache.store(KEY, make_result(), 2, None)
        path = tmp_path / "snap.json"
        snapshot_result_cache(cache, path)  # snapshotted alive
        restored = ResultCache(ttl_seconds=10, clock=FakeClock(0.0))
        # the snapshot carries age 0, but suppose the file sat on disk:
        # rewrite ages to simulate a stale snapshot
        doc = json.loads(path.read_text())
        for entry in doc["entries"]:
            entry["age_seconds"] = 99.0
        path.write_text(json.dumps(doc))
        assert restore_result_cache(restored, path) == 0
        assert len(restored) == 0

    def test_snapshot_excludes_already_expired(self, tmp_path):
        clock = FakeClock(1000.0)
        cache = ResultCache(ttl_seconds=10, clock=clock)
        cache.store(KEY, make_result(), 2, None)
        clock.now = 1050.0
        assert snapshot_result_cache(cache, tmp_path / "s.json") == 0


class TestCorruptSnapshots:
    def test_garbage_raises_typed(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text("{not json")
        with pytest.raises(StoreCorruptError, match="unreadable"):
            restore_result_cache(ResultCache(), path)

    def test_wrong_format_tag_raises_typed(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text(json.dumps({"format": "something/else", "entries": []}))
        with pytest.raises(StoreCorruptError, match="snapshot"):
            restore_result_cache(ResultCache(), path)

    def test_malformed_entries_skipped_not_guessed(self, tmp_path):
        cache = ResultCache()
        cache.store(KEY, make_result(), 2, None)
        path = tmp_path / "snap.json"
        snapshot_result_cache(cache, path)
        doc = json.loads(path.read_text())
        good = doc["entries"][0]
        doc["entries"] = [
            {"key": {"weird": 1}, "abs_support": 2, "max_k": None,
             "age_seconds": 0, "result": good["result"]},  # bad key tag
            {"key": good["key"], "abs_support": 2, "max_k": None,
             "age_seconds": 0, "result": {"format": "other"}},  # bad result
            good,
        ]
        path.write_text(json.dumps(doc))
        restored = ResultCache()
        assert restore_result_cache(restored, path) == 1
        assert restored.lookup(KEY, 2, None) is not None

    def test_snapshot_write_is_atomic(self, tmp_path):
        """The temp file never lingers and the target is complete JSON."""
        cache = ResultCache()
        cache.store(KEY, make_result(), 2, None)
        path = tmp_path / "snap.json"
        snapshot_result_cache(cache, path)
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "snap.json"]
        assert leftovers == []
        json.loads(path.read_text())  # parses fully
