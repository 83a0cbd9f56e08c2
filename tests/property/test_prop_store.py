"""Property tests: mining over mmap-loaded artifacts is bit-identical.

The acceptance property for the persistent store: for ANY database,
serializing it to an artifact and mining over the memory-mapped views
(pinned matrix, pinned hybrid layout) mines exactly the brute-force
oracle's itemsets, across every counting engine. The store is a
storage tier, never an answer-changing one.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GPAprioriConfig, gpapriori_mine
from repro.store import read_dataset, write_dataset
from tests.conftest import brute_force_frequent
from tests.property.strategies import transaction_databases

SLOW = settings(max_examples=15, deadline=None)

ENGINES = ["vectorized", "simulated", "parallel"]


class TestMmapMiningBitIdentity:
    @SLOW
    @given(
        transaction_databases(max_items=7, max_transactions=18, allow_empty_db=False),
        st.sampled_from(ENGINES),
        st.data(),
    )
    def test_engines_bit_identical_over_mmap(self, tmp_path_factory, db, engine, data):
        min_count = data.draw(st.integers(min_value=1, max_value=max(1, len(db))))
        path = tmp_path_factory.mktemp("prop") / "a.rvl"
        write_dataset(path, "prop", db)
        art = read_dataset(path)
        config = GPAprioriConfig(engine=engine)
        via_store = gpapriori_mine(art.db, min_count, config=config, table=art.matrix)
        assert via_store.as_dict() == brute_force_frequent(db, min_count), engine

    @SLOW
    @given(
        transaction_databases(max_items=7, max_transactions=18, allow_empty_db=False),
        st.data(),
    )
    def test_hybrid_layout_bit_identical_over_mmap(self, tmp_path_factory, db, data):
        from repro.bitset import BitsetMatrix
        from repro.bitset.hybrid import HybridLayout

        min_count = data.draw(st.integers(min_value=1, max_value=max(1, len(db))))
        threshold = data.draw(st.sampled_from([0.1, 0.5, 0.9]))
        matrix = BitsetMatrix.from_database(db, aligned=True)
        hybrid = HybridLayout.from_matrix(matrix, threshold)
        path = tmp_path_factory.mktemp("prop") / "h.rvl"
        write_dataset(path, "prop", db, matrix=matrix, hybrid=hybrid)
        art = read_dataset(path)
        config = GPAprioriConfig(layout="hybrid", dense_threshold=threshold)
        via_store = gpapriori_mine(art.db, min_count, config=config, table=art.hybrid)
        assert via_store.as_dict() == brute_force_frequent(db, min_count)

    @SLOW
    @given(
        transaction_databases(max_items=8, max_transactions=24, allow_empty_db=False),
        st.data(),
    )
    def test_round_trip_preserves_database_exactly(self, tmp_path_factory, db, data):
        import numpy as np

        from repro.bitset import BitsetMatrix

        path = tmp_path_factory.mktemp("prop") / "rt.rvl"
        write_dataset(path, "rt", db)
        art = read_dataset(path)
        assert art.db == db
        expected = BitsetMatrix.from_database(db, aligned=True)
        assert np.array_equal(art.matrix.words, expected.words)
