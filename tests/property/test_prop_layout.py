"""Property-based tests: the hybrid layout is a storage decision.

Whatever mix of dense bitset rows and sparse tid-lists the threshold
produces, the modeled hardware costs stay engine-invariant, and the
layout's single-item supports are the matrix's. (Every layout's mined
supports are checked against the brute-force oracle in
``test_prop_oracle_matrix``.) Hypothesis drives random databases and
random thresholds, including the degenerate all-dense (0.0) and
all-sparse (1.0) splits.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitset import BitsetMatrix
from repro.bitset.hybrid import HybridLayout, hybrid_supports
from tests.property.strategies import priced_alike, thresholds, transaction_databases

SLOW = settings(max_examples=20, deadline=None)


class TestHybridEquivalence:
    @SLOW
    @given(
        transaction_databases(max_items=7, max_transactions=18),
        thresholds(),
        st.data(),
    )
    def test_modeled_costs_engine_invariant_under_hybrid(self, db, threshold, data):
        """The cost model prices the layout's work, not the engine's
        execution strategy: all three base engines charge identically.
        (The fleet is left out: its breakdown is one ``fleet_makespan``.)"""
        min_count = data.draw(st.integers(min_value=1, max_value=max(1, len(db))))
        priced_alike(db, min_count, layout="hybrid", dense_threshold=threshold)


class TestLayoutStructure:
    @SLOW
    @given(transaction_databases(max_items=7, max_transactions=18), thresholds())
    def test_hybrid_supports_match_matrix_supports(self, db, threshold):
        import numpy as np

        matrix = BitsetMatrix.from_database(db)
        layout = HybridLayout.from_matrix(matrix, threshold)
        assert layout.n_dense + layout.n_sparse == matrix.n_items
        singletons = np.arange(matrix.n_items, dtype=np.int32).reshape(-1, 1)
        assert (
            hybrid_supports(layout, singletons) == matrix.supports()
        ).all()

    @SLOW
    @given(transaction_databases(max_items=7, max_transactions=18))
    def test_degenerate_splits(self, db):
        matrix = BitsetMatrix.from_database(db)
        all_dense = HybridLayout.from_matrix(matrix, 0.0)
        assert all_dense.n_sparse == 0
        # support >= n_tx keeps an item dense at threshold 1.0, so
        # only items in every transaction survive the dense side
        nearly_sparse = HybridLayout.from_matrix(matrix, 1.0)
        full = (matrix.supports() == matrix.n_transactions).sum()
        assert nearly_sparse.n_dense == int(full)
