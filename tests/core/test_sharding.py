"""Unit tests for the out-of-core tid-range sharding layer."""

import numpy as np
import pytest

from repro.bitset import BitsetMatrix
from repro.core.config import GPAprioriConfig
from repro.core.gpapriori import gpapriori_mine
from repro.core.itemset import RunMetrics
from repro.core.partitioned import ShardedEngine
from repro.core.sharding import Shard, ShardPlan, slice_matrix
from repro.core.support import make_engine
from repro.errors import ConfigError, DeviceMemoryError, MiningError


class TestShardPlan:
    def test_single_shard_covers_everything(self):
        plan = ShardPlan.build(100, 10)
        assert plan.n_shards == 1
        (shard,) = plan.shards
        assert shard.tid_start == 0
        assert shard.tid_stop == 100
        assert shard.word_start == 0
        assert shard.word_stop == plan.n_words

    def test_explicit_count_partitions_word_axis(self):
        plan = ShardPlan.build(1000, 10, aligned=False, shards=4)
        assert plan.n_shards == 4
        # shards tile the word axis without gaps or overlap
        assert plan.shards[0].word_start == 0
        for a, b in zip(plan.shards, plan.shards[1:]):
            assert a.word_stop == b.word_start
            assert a.tid_stop == b.tid_start
        assert plan.shards[-1].word_stop == plan.n_words
        assert plan.shards[-1].tid_stop == 1000

    def test_aligned_boundaries_are_multiples_of_align_unit(self):
        # 2048 transactions = 64 words = 4 aligned blocks of 16
        plan = ShardPlan.build(2048, 10, aligned=True, shards=4)
        assert plan.n_words == 64
        for shard in plan.shards[:-1]:
            assert shard.word_stop % 16 == 0

    def test_alignment_rounds_shard_count_down(self):
        # 32 aligned words = 2 blocks: asking for 3 shards yields 2
        plan = ShardPlan.build(1024, 10, aligned=True, shards=3)
        assert plan.n_words == 32
        assert plan.n_shards == 2

    def test_budget_sizes_double_buffered_slabs(self):
        plan = ShardPlan.build(1000, 10, aligned=False, memory_budget_bytes=10_000)
        assert plan.double_buffered
        assert 2 * plan.slab_bytes <= 10_000

    def test_budget_degrades_to_single_buffered(self):
        # after the scratch reserve, one minimum slab fits but two do not
        n_items = 75
        budget = 600  # scratch 150, slab budget 450 vs 300-byte slabs
        plan = ShardPlan.build(150, n_items, aligned=False, memory_budget_bytes=budget)
        assert not plan.double_buffered
        assert plan.slab_bytes <= budget

    def test_hopeless_budget_raises(self):
        with pytest.raises(DeviceMemoryError, match="cannot hold"):
            ShardPlan.build(1000, 100, aligned=False, memory_budget_bytes=64)

    def test_negative_arguments_rejected(self):
        with pytest.raises(ConfigError):
            ShardPlan.build(-1, 10)
        with pytest.raises(ConfigError):
            ShardPlan.build(10, -1)
        with pytest.raises(ConfigError):
            ShardPlan.build(10, 10, shards=-2)

    def test_trailing_padding_shards_dropped(self):
        # 10 transactions fit one word; aligned padding adds 15 empty
        # words that must not become empty shards
        plan = ShardPlan.build(10, 5, aligned=True, shards=16)
        assert plan.n_shards == 1

    def test_total_bytes_is_matrix_footprint(self, small_db):
        matrix = BitsetMatrix.from_database(small_db)
        plan = ShardPlan.for_matrix(matrix, shards=2)
        assert plan.total_bytes == matrix.nbytes

    def test_repr_mentions_ranges(self):
        shard = Shard(0, 0, 32, 0, 1)
        assert "tids=[0, 32)" in repr(shard)


class TestSliceMatrix:
    def test_slices_reassemble_to_original(self, small_db):
        matrix = BitsetMatrix.from_database(small_db, aligned=False)
        plan = ShardPlan.for_matrix(matrix, shards=3)
        slabs = [slice_matrix(matrix, s) for s in plan.shards]
        joined = np.concatenate([s.words for s in slabs], axis=1)
        assert np.array_equal(joined, matrix.words)

    def test_per_shard_supports_sum_to_global(self, small_db):
        matrix = BitsetMatrix.from_database(small_db, aligned=False)
        plan = ShardPlan.for_matrix(matrix, shards=3)
        full = matrix.supports()
        partial = sum(slice_matrix(matrix, s).supports() for s in plan.shards)
        assert np.array_equal(partial, full)


class TestShardedEngine:
    def test_make_engine_returns_sharded_wrapper(self):
        cfg = GPAprioriConfig(shards=2)
        engine = make_engine(cfg, RunMetrics())
        assert isinstance(engine, ShardedEngine)

    def test_unsharded_config_stays_plain(self):
        cfg = GPAprioriConfig()
        engine = make_engine(cfg, RunMetrics())
        assert not isinstance(engine, ShardedEngine)

    def test_counting_before_setup_raises(self):
        engine = make_engine(GPAprioriConfig(shards=2), RunMetrics())
        with pytest.raises(MiningError, match="setup"):
            engine.count_complete(np.zeros((1, 1), dtype=np.int32))

    def test_supports_match_unsharded(self, small_db):
        reference = gpapriori_mine(small_db, 6)
        for shards in (2, 3):
            cfg = GPAprioriConfig(shards=shards, aligned=False)
            got = gpapriori_mine(small_db, 6, config=cfg)
            assert got.as_dict() == reference.as_dict(), shards

    def test_shard_metrics_recorded(self, small_db):
        cfg = GPAprioriConfig(shards=2, aligned=False)
        result = gpapriori_mine(small_db, 6, config=cfg)
        reg = result.metrics.registry
        assert reg.gauges["shard.count"] == 2
        assert reg.gauges["shard.slab_bytes"] > 0
        assert result.metrics.counters["shard.bytes_installed"] > 0
        # counting rounds after the first re-stream every slab
        assert result.metrics.counters["shard.stream_rounds"] >= 1
        assert result.metrics.modeled_breakdown["htod_shard_stream"] > 0

    def test_single_shard_streams_nothing(self, small_db):
        cfg = GPAprioriConfig(shards=1)
        result = gpapriori_mine(small_db, 6, config=cfg)
        assert "htod_shard_stream" not in result.metrics.modeled_breakdown

    def test_budget_enforced_on_simulated_device(self):
        """The budget caps the simulated allocator, not just the plan."""
        from repro.datasets import dataset_analog

        db = dataset_analog("chess", scale=0.05)
        matrix = BitsetMatrix.from_database(db, aligned=False)
        cfg = GPAprioriConfig(
            engine="simulated",
            aligned=False,
            memory_budget_bytes=matrix.nbytes,
        )
        result = gpapriori_mine(db, 0.9, config=cfg)
        reference = gpapriori_mine(db, 0.9)
        assert result.as_dict() == reference.as_dict()
        assert result.metrics.registry.gauges["shard.count"] > 1

    def test_equivalence_plan_survives_sharding(self, small_db):
        reference = gpapriori_mine(small_db, 6)
        cfg = GPAprioriConfig(plan="equivalence", shards=3, aligned=False)
        got = gpapriori_mine(small_db, 6, config=cfg)
        assert got.as_dict() == reference.as_dict()


class TestConfigWiring:
    def test_sharded_property(self):
        assert not GPAprioriConfig().sharded
        assert GPAprioriConfig(shards=2).sharded
        assert GPAprioriConfig(memory_budget_bytes=1 << 20).sharded
        assert not GPAprioriConfig(shards=1).sharded

    def test_invalid_shards_rejected(self):
        with pytest.raises(ConfigError):
            GPAprioriConfig(shards=-1)
        with pytest.raises(ConfigError):
            GPAprioriConfig(memory_budget_bytes=0)

    def test_mine_accepts_shard_kwargs(self, small_db):
        from repro import mine

        reference = mine(small_db, 6)
        got = mine(small_db, 6, shards=2, aligned=False)
        assert got.as_dict() == reference.as_dict()
