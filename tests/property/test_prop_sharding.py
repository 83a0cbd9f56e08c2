"""Property-based tests: sharded counting is exact.

The sharding layer's correctness claim is unconditional: for any
database, threshold, engine, plan, and shard geometry, the sharded run
mines the identical itemset->support mapping as the unsharded run.
Supports are additive across disjoint tid ranges, so there is no
approximation to tolerate — equality is exact, down to the bit. With
``engine="multigpu"`` every fleet member streams the same shard plan
through its replica, and the claim still holds.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GPAprioriConfig, gpapriori_mine
from repro.bitset import BitsetMatrix
from repro.core.sharding import ShardPlan, slice_matrix
from tests.conftest import brute_force_frequent
from tests.property.strategies import (
    BASE_ENGINES,
    FLEET_SIZES,
    engines,
    tight_device,
    transaction_databases,
)

SLOW = settings(max_examples=20, deadline=None)


class TestShardedExactness:
    @SLOW
    @given(
        transaction_databases(max_items=7, max_transactions=18),
        engines(),
        st.sampled_from(["complete", "equivalence"]),
        st.integers(min_value=2, max_value=5),
        st.data(),
    )
    def test_sharded_matches_unsharded(self, db, engine, plan, shards, data):
        min_count = data.draw(st.integers(min_value=1, max_value=max(1, len(db))))
        # the oracle counts by definition; an unsharded mine would share
        # its counting core with every member engine
        reference = brute_force_frequent(db, min_count)
        if engine == "multigpu":
            # the fleet engine supports the complete plan only, and
            # sweeps its own device-count axis
            plan = "complete"
            devices = data.draw(st.sampled_from(FLEET_SIZES))
        else:
            devices = 0
        cfg = GPAprioriConfig(
            engine=engine,
            plan=plan,
            shards=shards,
            aligned=False,
            workers=2,
            devices=devices,
        )
        got = gpapriori_mine(db, min_count, config=cfg)
        assert got.as_dict() == reference, (engine, plan, shards, devices)

    @SLOW
    @given(
        transaction_databases(max_items=7, max_transactions=18),
        st.integers(min_value=2, max_value=5),
        st.data(),
    )
    def test_three_engines_agree_on_modeled_costs(self, db, shards, data):
        """Sharding must not break engine interchangeability: all three
        base engines still charge identical modeled costs for a sharded
        run (the fleet charges for its N replicas and is asserted on
        supports only, above)."""
        min_count = data.draw(st.integers(min_value=1, max_value=max(1, len(db))))
        runs = {
            name: gpapriori_mine(
                db,
                min_count,
                config=GPAprioriConfig(
                    engine=name,
                    shards=shards,
                    aligned=False,
                    block_size=8,
                    workers=2,
                ),
            )
            for name in BASE_ENGINES
        }
        ref = runs["vectorized"]
        for name, got in runs.items():
            assert got.as_dict() == ref.as_dict(), name
            assert got.metrics.modeled_breakdown == ref.metrics.modeled_breakdown, name

    @SLOW
    @given(transaction_databases(max_items=7, max_transactions=18), st.data())
    def test_budget_driven_plan_is_exact(self, db, data):
        """A budget tight enough to force several shards (but wide
        enough for the scratch reserve) still mines exactly."""
        min_count = data.draw(st.integers(min_value=1, max_value=max(1, len(db))))
        matrix = BitsetMatrix.from_database(db, aligned=False)
        word_col = max(matrix.n_items * 4, 1)
        budget = 2 * word_col + 2048  # two one-word slabs + scratch
        reference = gpapriori_mine(db, min_count)
        cfg = GPAprioriConfig(
            aligned=False, memory_budget_bytes=budget, engine="simulated"
        )
        got = gpapriori_mine(db, min_count, config=cfg)
        assert got.as_dict() == reference.as_dict()

    @SLOW
    @given(
        transaction_databases(max_items=7, max_transactions=18),
        st.sampled_from(FLEET_SIZES),
        st.data(),
    )
    def test_budget_driven_fleet_is_exact(self, db, devices, data):
        """A per-device budget that forces every fleet replica to
        stream tid-range shards still mines exactly (sharded-fleet)."""
        min_count = data.draw(st.integers(min_value=1, max_value=max(1, len(db))))
        matrix = BitsetMatrix.from_database(db, aligned=False)
        word_col = max(matrix.n_items * 4, 1)
        budget = 2 * word_col + 2048  # two one-word slabs + scratch
        reference = gpapriori_mine(db, min_count)
        cfg = GPAprioriConfig(
            aligned=False,
            memory_budget_bytes=budget,
            engine="multigpu",
            devices=devices,
        )
        got = gpapriori_mine(db, min_count, config=cfg)
        assert got.as_dict() == reference.as_dict(), devices

    @SLOW
    @given(transaction_databases(max_items=6, max_transactions=16), st.data())
    def test_sharded_survives_memory_pressure(self, db, data):
        """On a tight device the simulated inner engines chunk their
        candidate launches, and the answer still matches."""
        min_count = data.draw(st.integers(min_value=1, max_value=max(1, len(db))))
        matrix = BitsetMatrix.from_database(db, aligned=False)
        tight = tight_device(matrix.nbytes + 2048)
        reference = gpapriori_mine(db, min_count)
        cfg = GPAprioriConfig(
            engine="simulated",
            aligned=False,
            memory_budget_bytes=matrix.nbytes + 2048,
        )
        got = gpapriori_mine(db, min_count, config=cfg, device=tight)
        assert got.as_dict() == reference.as_dict()


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
        plan = ShardPlan.for_matrix(matrix, shards=shards)
        total = sum(slice_matrix(matrix, s).supports() for s in plan.shards)
        assert np.array_equal(np.asarray(total), matrix.supports())
