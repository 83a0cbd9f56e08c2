"""Property-based tests: the engines charge the same modeled costs.

Every engine's supports are checked against the brute-force oracle in
``test_prop_oracle_matrix``; what that matrix cannot see is the cost
model. The simulator-fidelity claim here is that the vectorized,
simulated and parallel engines price the same run identically (the
model prices work, not execution strategy), also when the simulator
must chunk its launches, and that a fleet sized past the candidate
count idles its surplus devices.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GPAprioriConfig, gpapriori_mine
from repro.bitset import BitsetMatrix
from repro.datasets import TransactionDatabase
from tests.conftest import brute_force_frequent
from tests.property.strategies import (
    FLEET_SIZES,
    priced_alike,
    tight_device,
    transaction_databases,
)

SLOW = settings(max_examples=20, deadline=None)


class TestConfigInvariance:
    @SLOW
    @given(transaction_databases(max_items=7, max_transactions=18), st.data())
    def test_simulated_vectorized_modeled_costs_equal(self, db, data):
        """Both engines charge identical modeled hardware costs for the
        same run (the model prices work, not execution strategy)."""
        min_count = data.draw(st.integers(min_value=1, max_value=max(1, len(db))))
        vec = gpapriori_mine(db, min_count, config=GPAprioriConfig(engine="vectorized"))
        sim_config = GPAprioriConfig(engine="simulated", block_size=4)
        sim = gpapriori_mine(db, min_count, config=sim_config)
        v = vec.metrics.modeled_breakdown
        s = sim.metrics.modeled_breakdown
        # block size differs between the configs (256 vs 4), so compare
        # the transfer charges, which depend only on data volumes.
        for key in ("htod_bitsets", "htod_candidates", "dtoh_supports"):
            if key in v or key in s:
                assert abs(v.get(key, 0) - s.get(key, 0)) < 1e-12, key


class TestThreeEngineEquivalence:
    """All three base engines are interchangeable: identical supports and
    identical modeled hardware costs on the same (db, min_count, plan)."""

    @SLOW
    @given(
        transaction_databases(max_items=7, max_transactions=18),
        st.sampled_from(["complete", "equivalence"]),
        st.data(),
    )
    def test_identical_supports_and_modeled_costs(self, db, plan, data):
        min_count = data.draw(st.integers(min_value=1, max_value=max(1, len(db))))
        runs = priced_alike(db, min_count, plan=plan, block_size=8)
        assert all(r.as_dict() == runs["vectorized"].as_dict() for r in runs.values())

    def test_identical_under_memory_pressure(self, small_db):
        """On a device so tight the simulator must chunk every large
        generation into multiple launches, modeled costs still match the
        other engines exactly."""
        tight = tight_device(BitsetMatrix.from_database(small_db).nbytes + 600)
        runs = priced_alike(small_db, 6, device=tight, block_size=8)
        sim = runs["simulated"].metrics
        assert sim.counters["kernel.launches"] > len(sim.generations), "no chunking"


class TestFleetEquivalence:
    """A fleet larger than the candidate count idles its surplus."""

    @pytest.mark.parametrize("devices", FLEET_SIZES)
    def test_fleet_larger_than_candidate_count(self, devices):
        # two items -> at most one pair candidate per generation; a
        # 5-device fleet must idle the surplus, not misassign blocks
        db = TransactionDatabase([[0, 1], [0, 1], [1]], n_items=2)
        got = gpapriori_mine(
            db, 1, config=GPAprioriConfig(engine="multigpu", devices=devices)
        )
        assert got.as_dict() == brute_force_frequent(db, 1)
        assert (
            got.metrics.registry.gauge("fleet.devices") == devices
        )
