"""MiningService facade: sources, auto algorithm, options, lifecycle."""

import pytest

from repro.core.api import mine
from repro.datasets import TransactionDatabase, dataset_analog
from repro.errors import DatasetError, MiningError, ServiceError
from repro.service import MiningService, choose_algorithm
from repro.service.service import DENSITY_AUTO_THRESHOLD


@pytest.fixture
def db():
    return TransactionDatabase(
        [[0, 1, 2], [0, 1], [0, 2], [1, 2], [0, 1, 2, 3], [0, 3]]
    )


@pytest.fixture
def service(db):
    with MiningService(workers=2) as svc:
        svc.register_dataset("toy", db)
        yield svc


class TestSources:
    def test_cold_then_cache(self, service, db):
        first = service.query("toy", 2)
        assert first.source == "cold"
        assert first.result.same_itemsets(mine(db, 2))
        second = service.query("toy", 2)
        assert second.source == "cache"
        assert second.result is first.result

    def test_threshold_filtered_hit(self, service, db):
        service.query("toy", 0.2)
        tighter = service.query("toy", 0.6)
        assert tighter.source == "cache_filtered"
        assert tighter.result.same_itemsets(mine(db, 0.6))
        assert tighter.result.min_support == tighter.abs_support

    def test_fractional_support_normalized(self, service):
        frac = service.query("toy", 0.5)
        assert frac.abs_support == 3
        again = service.query("toy", 3)
        assert again.source == "cache"

    def test_distinct_options_do_not_share_cache(self, service):
        service.query("toy", 2)
        other = service.query("toy", 2, engine="parallel")
        assert other.source == "cold"
        assert other.result.same_itemsets(service.query("toy", 2).result)

    def test_max_k_is_part_of_the_key(self, service, db):
        service.query("toy", 2, max_k=1)
        uncapped = service.query("toy", 2)
        assert uncapped.source == "cold"  # capped run cannot serve it
        capped = service.query("toy", 3, max_k=1)
        assert capped.source == "cache_filtered"
        assert capped.result.same_itemsets(mine(db, 3, max_k=1))

    def test_all_algorithms_agree(self, service, db):
        reference = mine(db, 2)
        for algorithm in ("gpapriori", "eclat", "fpgrowth"):
            got = service.query("toy", 2, algorithm=algorithm)
            assert got.result.same_itemsets(reference), algorithm


class TestAutoAlgorithm:
    def test_dense_routes_to_gpapriori(self, service):
        # toy db density 14/24 ~ 0.58 >> threshold
        got = service.query("toy", 2, algorithm="auto")
        assert got.algorithm == "gpapriori"
        # auto and explicit share a cache key
        assert service.query("toy", 2, algorithm="gpapriori").source == "cache"

    def test_sparse_routes_to_eclat(self):
        # T40I10D100K analog: ~40 of 942 items per row, density ~0.042
        with MiningService(workers=1) as svc:
            svc.register_dataset("sparse", dataset_analog("T40I10D100K", scale=0.005))
            got = svc.query("sparse", 0.2, algorithm="auto")
            assert got.algorithm == "eclat"

    def test_choose_algorithm_threshold(self, service):
        profile = service.registry.get("toy").profile
        assert profile.density >= DENSITY_AUTO_THRESHOLD
        assert choose_algorithm(profile) == "gpapriori"


class TestValidation:
    def test_unknown_dataset(self, service):
        with pytest.raises(DatasetError):
            service.query("nope", 2)

    def test_unknown_algorithm(self, service):
        with pytest.raises(MiningError, match="unknown algorithm"):
            service.query("toy", 2, algorithm="magic")

    def test_reserved_options_rejected(self, service):
        for name in ("config", "device", "table"):
            with pytest.raises(MiningError, match="managed by the service"):
                service.query("toy", 2, **{name: object()})

    def test_unknown_option_rejected(self, service):
        with pytest.raises(MiningError, match="unknown option"):
            service.query("toy", 2, bogus=True)

    def test_bad_support_rejected(self, service):
        with pytest.raises(MiningError):
            service.query("toy", 0)

    def test_bad_max_k_rejected(self, service):
        with pytest.raises(MiningError, match="max_k"):
            service.query("toy", 2, max_k=0)

    def test_closed_service_rejects(self, db):
        svc = MiningService(workers=1)
        svc.register_dataset("toy", db)
        svc.close()
        with pytest.raises(ServiceError, match="closed"):
            svc.query("toy", 2)
        svc.close()  # idempotent


class TestOperations:
    def test_preload(self, service):
        service.preload()
        assert service.registry.resident() == ["toy"]

    def test_stats_shape(self, service):
        service.query("toy", 2)
        stats = service.stats()
        assert stats["cache"]["entries"] == 1
        assert stats["scheduler"]["scheduled"] == 1
        assert stats["registry"]["resident"] == ["toy"]
        assert stats["metrics"]["counters"]["service.queries"] == 1
        assert stats["metrics"]["counters"]["service.source.cold"] == 1
        # live load gauges + coalescing + flight recorder are all visible
        assert stats["metrics"]["gauges"]["service.queue_depth"] == 0
        assert stats["metrics"]["gauges"]["service.inflight"] == 0
        assert stats["scheduler"]["coalesced"] == 0
        assert stats["flight"]["recorded"] == 1

    def test_response_as_dict_is_json_ready(self, service):
        import json

        doc = service.query("toy", 2).as_dict()
        parsed = json.loads(json.dumps(doc))
        assert parsed["source"] == "cold"
        assert parsed["result"]["format"] == "repro.mining_result/1"

    def test_engine_option_parallel(self, service, db):
        got = service.query("toy", 2, engine="parallel")
        assert got.result.same_itemsets(mine(db, 2))

    def test_sharded_dataset_mines_identically(self):
        import numpy as np

        from repro.bitset.bitset import BitsetMatrix

        rng = np.random.default_rng(7)
        rows = [
            rng.choice(16, size=rng.integers(1, 8), replace=False)
            for _ in range(2000)
        ]
        big = TransactionDatabase(rows, n_items=16)
        budget = BitsetMatrix.from_database(big).nbytes // 2
        with MiningService(workers=1, device_budget_bytes=budget) as svc:
            svc.register_dataset("big", big)
            entry = svc.registry.get("big")
            assert entry.shard_plan is not None
            got = svc.query("big", 0.2)
            assert got.result.same_itemsets(mine(big, 0.2))


class TestTelemetry:
    def test_query_latency_histogram_observed(self, service):
        service.query("toy", 2)
        service.query("toy", 2)
        hist = service.metrics.histogram("service.query.seconds")
        assert hist is not None
        assert hist.count == 2
        assert hist.max > 0.0

    def test_flight_record_after_ok_query(self, service):
        got = service.query("toy", 2, engine="parallel")
        (rec,) = service.flight.last()
        assert rec.query_id == "q000001"
        assert rec.status == "ok"
        assert rec.source == got.source == "cold"
        assert rec.algorithm == "gpapriori"
        assert rec.abs_support == 2
        assert rec.options == {"engine": "parallel"}
        assert rec.metrics_delta["service.queries"] == 1
        assert any(s["name"] == "service.query" for s in rec.spans)

    def test_flight_record_after_error(self, service):
        with pytest.raises(DatasetError):
            service.query("nope", 2)
        (rec,) = service.flight.last()
        assert rec.status == "error"
        assert rec.error_type == "DatasetError"
        assert rec.source is None

    def test_query_ids_are_sequential(self, service):
        service.query("toy", 2)
        service.query("toy", 2)
        ids = [r.query_id for r in service.flight.last()]
        assert ids == ["q000002", "q000001"]
        # every record carries the service-wide trace correlation id
        assert all(len(r.trace_id) == 16 for r in service.flight.last())

    def test_flight_capacity_honoured(self, db):
        with MiningService(workers=1, flight_capacity=2) as svc:
            svc.register_dataset("toy", db)
            for _ in range(3):
                svc.query("toy", 2)
            assert svc.flight.stats() == {
                "capacity": 2,
                "retained": 2,
                "recorded": 3,
            }

    def test_slow_query_counter(self, db):
        # threshold of 0 ms: every query is "slow"
        with MiningService(workers=1, slow_query_ms=0.0) as svc:
            svc.register_dataset("toy", db)
            svc.query("toy", 2)
            assert svc.metrics.counter("service.slow_queries") == 1

    def test_ready_states(self, db):
        svc = MiningService(workers=1)
        svc.register_dataset("toy", db)
        doc = svc.ready()
        assert doc["ready"] is True
        assert doc["scheduler_alive"] is True
        assert doc["datasets_registered"] == 1
        svc.preload()
        assert svc.ready()["preload_pending"] is False
        assert svc.ready()["datasets_resident"] == 1
        svc.close()
        after = svc.ready()
        assert after["ready"] is False
        assert after["closed"] is True
