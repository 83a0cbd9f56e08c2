"""Property-based tests: sharded counting stays exact and priced alike.

Supports are additive across disjoint tid ranges, so a sharded run
mines exactly what an unsharded one does; the oracle matrix
(``test_prop_oracle_matrix``) checks every engine x layout x shard
setting against brute force. Here: a shard plan tiles the word axis,
per-shard supports sum to the global ones, the three base engines
charge identical modeled costs for a sharded run, and simulated
members that must chunk their launches on a tight device still mine
the oracle's answer.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import GPAprioriConfig, gpapriori_mine
from repro.bitset import BitsetMatrix
from repro.core.gpapriori import generation1_table
from repro.core.sharding import ShardPlan
from repro.datasets import TransactionDatabase
from tests.conftest import brute_force_frequent
from tests.property.strategies import priced_alike, tight_device, transaction_databases

SLOW = settings(max_examples=20, deadline=None)


class TestShardedExactness:
    @SLOW
    @given(
        # up to 3 words per row, so the unaligned table really splits
        transaction_databases(max_items=7, max_transactions=90),
        st.integers(min_value=2, max_value=5),
        st.data(),
    )
    def test_three_engines_agree_on_modeled_costs(self, db, shards, data):
        """Sharding must not break engine interchangeability: all three
        base engines still charge identical modeled costs for a sharded
        run (the fleet charges for its N replicas and is left out)."""
        min_count = data.draw(st.integers(min_value=1, max_value=max(1, len(db))))
        priced_alike(db, min_count, shards=shards, aligned=False, block_size=8)

    @SLOW
    @given(
        # 40+ transactions: two or more unaligned words per row to split
        transaction_databases(max_items=6, min_transactions=40, max_transactions=96),
        st.sampled_from(["simulated", "vectorized", "parallel"]),
        st.data(),
    )
    def test_sharded_survives_memory_pressure(self, db, engine, data):
        """The table streams in two or more tid-range slabs. The vectorized
        and parallel members count each slab on the host core, under a
        budget smaller than the table. The simulated members chunk their
        launches on a device the size of the table plus the 2 KiB their
        allocations need, so ``shards=2`` cuts the table for them. The
        answer still matches."""
        min_count = data.draw(st.integers(min_value=1, max_value=len(db)))
        matrix = BitsetMatrix.from_database(db, aligned=False)
        if engine == "simulated":
            shards, budget = 2, matrix.nbytes + 2048
        else:
            shards, budget = 0, data.draw(st.integers(matrix.nbytes * 3 // 4, matrix.nbytes - 1))
        plan = ShardPlan.for_table(matrix, shards=shards, memory_budget_bytes=budget)
        assert plan.n_shards >= 2
        cfg = GPAprioriConfig(
            engine=engine, aligned=False, shards=shards, memory_budget_bytes=budget
        )
        got = gpapriori_mine(db, min_count, config=cfg, device=tight_device(budget))
        assert got.as_dict() == brute_force_frequent(db, min_count)


class TestPlanInvariants:
    @given(
        st.integers(min_value=0, max_value=4000),
        st.integers(min_value=1, max_value=64),
        st.booleans(),
        st.integers(min_value=1, max_value=12),
    )
    def test_shards_tile_the_word_axis(self, n_tx, n_items, aligned, shards):
        plan = ShardPlan.build(n_tx, n_items, aligned=aligned, shards=shards)
        assert plan.shards[0].word_start == 0
        for a, b in zip(plan.shards, plan.shards[1:]):
            assert a.word_stop == b.word_start
            assert a.tid_stop == b.tid_start
        assert plan.shards[0].tid_start == 0
        assert plan.shards[-1].tid_stop == n_tx

    @given(
        transaction_databases(max_items=7, max_transactions=40),
        st.integers(min_value=1, max_value=8),
        st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_sliced_supports_sum_to_global(self, db, shards, aligned):
        import numpy as np

        matrix = BitsetMatrix.from_database(db, aligned=aligned)
        plan = ShardPlan.for_table(matrix, shards=shards)
        total = sum(matrix.slice_shard(s).supports() for s in plan.shards)
        assert np.array_equal(np.asarray(total), matrix.supports())

    @given(
        transaction_databases(max_items=7, max_transactions=200),
        st.booleans(),
        st.sampled_from(["dense", "hybrid", "auto"]),
        st.sampled_from([None, 0.5, 1.0]),
    )
    @example(TransactionDatabase([]), True, "hybrid", 1.0)
    @settings(max_examples=40, deadline=None)
    def test_min_budget_always_plans(self, db, aligned, layout, threshold):
        """Every table the driver builds plans at its floor: dense aligned
        and unaligned, hybrid, auto, all-sparse (threshold 1.0), empty."""
        config = GPAprioriConfig(
            aligned=aligned,
            layout=layout,
            dense_threshold=None if layout == "dense" else threshold,
        )
        table = generation1_table(db, config)
        plan = ShardPlan.for_table(table, memory_budget_bytes=ShardPlan.min_budget(table))
        assert plan.shards[-1].tid_stop == db.n_transactions
