"""Unit tests for the Section VI future-work extensions.

Covers the hybrid CPU/GPU balancers, multi-GPU candidate partitioning,
GPU Eclat, and the Partition baseline beyond what the shared algorithm
contract already asserts.
"""

import pytest

from repro import (
    GPAprioriConfig,
    ModelBalancer,
    StaticBalancer,
    gpapriori_mine,
    gpu_eclat_mine,
    hybrid_mine,
    mine,
)
from repro.baselines.partition import partition_mine
from repro.errors import ConfigError, MiningError
from tests.conftest import fleet_clocks


def fleet_mine(db, min_support, devices):
    """Mine on a fleet of ``devices`` simulated T10s."""
    return mine(db, min_support, engine="multigpu", devices=devices)


class TestStaticBalancer:
    def test_share_bounds(self):
        with pytest.raises(ConfigError):
            StaticBalancer(1.5)
        with pytest.raises(ConfigError):
            StaticBalancer(-0.1)

    @pytest.mark.parametrize("share,expect", [(0.0, 0), (0.5, 50), (1.0, 100)])
    def test_split(self, share, expect):
        assert StaticBalancer(share).split(100, 3, 64) == expect

    def test_pure_gpu_equals_gpapriori_itemsets(self, small_db):
        ref = gpapriori_mine(small_db, 8)
        got = hybrid_mine(small_db, 8, balancer=StaticBalancer(1.0))
        assert got.same_itemsets(ref)
        assert got.metrics.counters["cpu_candidates"] == 0

    def test_pure_cpu(self, small_db):
        ref = gpapriori_mine(small_db, 8)
        got = hybrid_mine(small_db, 8, balancer=StaticBalancer(0.0))
        assert got.same_itemsets(ref)
        assert got.metrics.counters["gpu_candidates"] == 0


class TestModelBalancer:
    def test_small_generations_stay_on_cpu(self):
        """Fixed launch + PCIe costs mean tiny batches lose on the GPU;
        the balancer must route them to the CPU."""
        b = ModelBalancer()
        assert b.split(10, 2, 16) == 0

    def test_huge_generations_go_mostly_gpu(self):
        """At accidents scale the GPU should take (nearly) everything."""
        b = ModelBalancer()
        g = b.split(50_000, 4, 10_640)
        assert g / 50_000 > 0.9

    def test_split_in_range(self):
        b = ModelBalancer(steps=16)
        for n in (0, 1, 7, 1000):
            assert 0 <= b.split(n, 3, 64) <= n

    def test_makespan_never_worse_than_either_extreme(self, small_db):
        balanced = hybrid_mine(small_db, 8).metrics.modeled_breakdown[
            "hybrid_makespan"
        ]
        gpu_only = hybrid_mine(
            small_db, 8, balancer=StaticBalancer(1.0)
        ).metrics.modeled_breakdown["hybrid_makespan"]
        cpu_only = hybrid_mine(
            small_db, 8, balancer=StaticBalancer(0.0)
        ).metrics.modeled_breakdown["hybrid_makespan"]
        assert balanced <= min(gpu_only, cpu_only) * 1.001

    def test_invalid_steps(self):
        with pytest.raises(ConfigError):
            ModelBalancer(steps=1)


class TestHybridMine:
    def test_matches_oracle(self, small_db, oracle):
        assert hybrid_mine(small_db, 8).as_dict() == oracle(small_db, 8)

    def test_split_counters_partition_candidates(self, small_db):
        m = hybrid_mine(small_db, 8).metrics
        total = m.counters["gpu_candidates"] + m.counters["cpu_candidates"]
        assert total == sum(m.generations)

    def test_max_k(self, small_db):
        r = hybrid_mine(small_db, 8, max_k=2)
        assert r.max_size() <= 2

    def test_invalid_max_k(self, small_db):
        with pytest.raises(MiningError):
            hybrid_mine(small_db, 8, max_k=0)


class TestMultiGpu:
    def test_partitioning_never_changes_results(self, small_db, oracle):
        want = oracle(small_db, 8)
        for n in (1, 2, 4, 7):
            got = fleet_mine(small_db, 8, n)
            assert got.as_dict() == want, n

    def test_single_device_matches_itself(self, small_db):
        makespan, single = fleet_clocks(fleet_mine(small_db, 8, 1))
        assert makespan > 0
        assert single == pytest.approx(makespan)

    def test_speedup_bounded_by_device_count(self, small_db):
        makespan, single = fleet_clocks(fleet_mine(small_db, 8, 4))
        assert 0 < makespan and 0 < single <= 4.0 * makespan * (1 + 1e-9)

    def test_large_generations_scale(self, dense_db):
        """With enough candidates per generation the fleet must show a
        real speedup (launch overheads are per-device but work divides)."""
        one, _ = fleet_clocks(fleet_mine(dense_db, 10, 1))
        four, _ = fleet_clocks(fleet_mine(dense_db, 10, 4))
        assert four < one

    def test_scaling_sweep_shapes(self, small_db):
        spans = [fleet_clocks(fleet_mine(small_db, 8, n))[0] for n in (1, 2, 4)]
        # makespan is non-increasing in fleet size
        assert spans == sorted(spans, reverse=True)

    def test_invalid_device_count(self, small_db):
        with pytest.raises(ConfigError):
            fleet_mine(small_db, 8, -1)
        with pytest.raises(ConfigError):
            fleet_mine(small_db, 8, True)

    def test_degenerate_workload_clocks_are_finite(self):
        """An (almost) empty workload runs on every fleet size and
        reports positive, finite clocks with speedup <= devices."""
        from repro.datasets import TransactionDatabase

        db = TransactionDatabase([[0]], n_items=1)
        for n in (1, 2):
            makespan, single = fleet_clocks(fleet_mine(db, 1, n))
            assert 0 < makespan < float("inf")
            assert single <= n * makespan * (1 + 1e-9)


class TestGpuEclat:
    def test_matches_oracle(self, small_db, oracle):
        assert gpu_eclat_mine(small_db, 8).as_dict() == oracle(small_db, 8)

    def test_dense_db_deep(self, dense_db, oracle):
        assert gpu_eclat_mine(dense_db, 15).as_dict() == oracle(dense_db, 15)

    def test_many_small_launches(self, dense_db):
        """DFS pays one launch per equivalence class — far more launches
        than the level-wise driver's one per generation."""
        eclat_m = gpu_eclat_mine(dense_db, 10).metrics
        level_m = gpapriori_mine(dense_db, 10).metrics
        assert eclat_m.counters["kernel_launches"] > len(level_m.generations)

    def test_chain_residency_smaller_than_level_cache(self, dense_db):
        """The DFS chain holds one root-to-leaf path of class rows —
        less device memory than the equivalence plan's full-generation
        cache."""
        dfs = gpu_eclat_mine(dense_db, 10).metrics.counters["peak_chain_bytes"]
        level = gpapriori_mine(
            dense_db, 10, config=GPAprioriConfig(plan="equivalence")
        ).metrics.counters["prefix_rows_resident_bytes"]
        assert dfs <= level * 4  # same order; usually smaller

    def test_max_k(self, small_db):
        r = gpu_eclat_mine(small_db, 8, max_k=2)
        full = gpu_eclat_mine(small_db, 8)
        assert r.as_dict() == {
            t: s for t, s in full.as_dict().items() if len(t) <= 2
        }


class TestPartition:
    def test_matches_oracle(self, small_db, oracle):
        want = oracle(small_db, 8)
        for p in (1, 2, 5, 10):
            assert partition_mine(small_db, 8, n_partitions=p).as_dict() == want

    def test_union_is_superset(self, small_db):
        r = partition_mine(small_db, 8, n_partitions=6)
        assert r.metrics.counters["union_candidates"] >= len(r)
        assert (
            r.metrics.counters["false_positives"]
            == r.metrics.counters["union_candidates"] - len(r)
        )

    def test_more_partitions_more_false_positives(self, small_db):
        """Smaller chunks admit more locally-frequent noise."""
        few = partition_mine(small_db, 10, n_partitions=2).metrics.counters
        many = partition_mine(small_db, 10, n_partitions=12).metrics.counters
        assert many["union_candidates"] >= few["union_candidates"]

    def test_single_partition_no_false_positives(self, small_db):
        r = partition_mine(small_db, 8, n_partitions=1)
        assert r.metrics.counters["false_positives"] == 0

    def test_fractional_support(self, small_db):
        by_ratio = partition_mine(small_db, 8 / 60, n_partitions=3)
        by_count = partition_mine(small_db, 8, n_partitions=3)
        assert by_ratio.same_itemsets(by_count)

    def test_invalid_partitions(self, small_db):
        with pytest.raises(MiningError):
            partition_mine(small_db, 8, n_partitions=0)
