"""Unit tests for the GPApriori mining driver."""

import pytest

from repro import GPAprioriConfig, gpapriori_mine
from repro.bitset import BitsetMatrix
from repro.bitset.hybrid import HybridLayout
from repro.errors import MiningError


class TestCorrectness:
    def test_matches_oracle(self, small_db, oracle):
        want = oracle(small_db, 8)
        got = gpapriori_mine(small_db, 8)
        assert got.as_dict() == want

    def test_paper_example(self, paper_db):
        # min support 3/4: items {3,4,5} plus some pairs/triples
        result = gpapriori_mine(paper_db, 3)
        assert result.support_of((3,)) == 4
        assert result.support_of((3, 4)) == 4
        assert (4, 5) in result and result.support_of((4, 5)) == 3
        assert (3, 4, 5) in result

    def test_fractional_support(self, paper_db):
        by_ratio = gpapriori_mine(paper_db, 0.75)
        by_count = gpapriori_mine(paper_db, 3)
        assert by_ratio.same_itemsets(by_count)

    def test_min_support_one_finds_everything_present(self, paper_db):
        result = gpapriori_mine(paper_db, 1)
        # every single item that occurs must be frequent
        present = {i for row in paper_db for i in row.tolist()}
        for i in present:
            assert (i,) in result
        # item 0 never occurs
        assert (0,) not in result

    def test_min_support_equal_n(self, paper_db):
        result = gpapriori_mine(paper_db, 4)
        assert result.as_dict() == {(3,): 4, (4,): 4, (3, 4): 4}

    def test_no_frequent_items(self, small_db):
        result = gpapriori_mine(small_db, small_db.n_transactions)
        assert len(result) == 0

    def test_max_k_caps_depth(self, small_db):
        capped = gpapriori_mine(small_db, 6, max_k=2)
        full = gpapriori_mine(small_db, 6)
        assert capped.max_size() <= 2
        assert capped.as_dict() == {
            k: v for k, v in full.as_dict().items() if len(k) <= 2
        }

    def test_max_k_one(self, small_db):
        result = gpapriori_mine(small_db, 6, max_k=1)
        assert result.max_size() == 1

    def test_empty_database(self, empty_db):
        result = gpapriori_mine(empty_db, 1)
        assert len(result) == 0

    def test_db_with_empty_transactions(self):
        from repro.datasets import TransactionDatabase

        db = TransactionDatabase([[0, 1], [], [0, 1], []])
        result = gpapriori_mine(db, 2)
        assert result.support_of((0, 1)) == 2
        assert result.n_transactions == 4


class TestValidation:
    def test_bad_max_k(self, small_db):
        with pytest.raises(MiningError):
            gpapriori_mine(small_db, 2, max_k=0)

    def test_bad_support(self, small_db):
        with pytest.raises(MiningError):
            gpapriori_mine(small_db, 0)
        with pytest.raises(MiningError):
            gpapriori_mine(small_db, 2.0)

    def test_pinned_table_of_another_database(self, small_db, paper_db):
        matrix = BitsetMatrix.from_database(paper_db)
        for table in (matrix, HybridLayout.from_matrix(matrix, 0.5)):
            with pytest.raises(MiningError, match="pinned table shape"):
                gpapriori_mine(small_db, 2, table=table)


class TestConfigurations:
    @pytest.mark.parametrize("plan", ["complete", "equivalence"])
    @pytest.mark.parametrize("engine", ["vectorized", "simulated"])
    def test_all_combinations_identical(self, small_db, plan, engine):
        base = gpapriori_mine(small_db, 8)
        cfg = GPAprioriConfig(plan=plan, engine=engine, block_size=8)
        assert gpapriori_mine(small_db, 8, config=cfg).same_itemsets(base)

    def test_unaligned_same_result(self, small_db):
        base = gpapriori_mine(small_db, 8)
        got = gpapriori_mine(small_db, 8, config=GPAprioriConfig(aligned=False))
        assert got.same_itemsets(base)

    def test_dense_db_deep_recursion(self, dense_db, oracle):
        want = oracle(dense_db, 20)
        for plan in ("complete", "equivalence"):
            got = gpapriori_mine(
                dense_db, 20, config=GPAprioriConfig(plan=plan)
            )
            assert got.as_dict() == want


class TestMetrics:
    def test_generations_recorded(self, small_db):
        result = gpapriori_mine(small_db, 8)
        gens = result.metrics.generations
        assert gens[0] == small_db.n_items
        assert len(gens) >= 2

    def test_modeled_time_positive(self, small_db):
        m = gpapriori_mine(small_db, 8).metrics
        assert m.modeled_seconds > 0
        assert "kernel" in m.modeled_breakdown
        assert "htod_bitsets" in m.modeled_breakdown
        assert "dtoh_supports" in m.modeled_breakdown

    def test_wall_time_positive(self, small_db):
        assert gpapriori_mine(small_db, 8).metrics.wall_seconds > 0

    def test_algorithm_name(self, small_db):
        assert gpapriori_mine(small_db, 8).metrics.algorithm == "gpapriori"

    def test_equivalence_plan_charges_prefix_writes(self, small_db):
        cfg = GPAprioriConfig(plan="equivalence")
        m = gpapriori_mine(small_db, 6, config=cfg).metrics
        assert m.counters.get("prefix_row_bytes_written", 0) > 0

    def test_complete_plan_no_prefix_writes(self, small_db):
        m = gpapriori_mine(small_db, 6).metrics
        assert "prefix_row_bytes_written" not in m.counters

    def test_complete_plan_ands_more_words_when_deep(self, dense_db):
        """Complete intersection recomputes prefixes: at k >= 3 it ANDs
        more words than equivalence class — the paper's trade-off."""
        complete = gpapriori_mine(dense_db, 20).metrics
        equiv = gpapriori_mine(
            dense_db, 20, config=GPAprioriConfig(plan="equivalence")
        ).metrics
        assert (
            complete.counters["bitset_words_anded"]
            > equiv.counters["bitset_words_anded"]
        )
