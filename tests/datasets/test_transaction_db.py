"""Unit tests for the horizontal TransactionDatabase container."""

import numpy as np
import pytest

from repro.datasets import TransactionDatabase
from repro.errors import DatasetError


class TestConstruction:
    def test_basic(self, paper_db):
        assert len(paper_db) == 4
        assert paper_db.n_items == 8
        assert paper_db.n_transactions == 4

    def test_rows_sorted_and_deduped(self):
        db = TransactionDatabase([[3, 1, 2, 2, 1]])
        assert db[0].tolist() == [1, 2, 3]

    def test_empty_database(self):
        db = TransactionDatabase([], n_items=5)
        assert len(db) == 0
        assert db.n_items == 5

    def test_empty_transactions_preserved(self):
        db = TransactionDatabase([[1], [], [2]])
        assert len(db) == 3
        assert db[1].size == 0

    def test_n_items_inferred(self):
        db = TransactionDatabase([[0, 7]])
        assert db.n_items == 8

    def test_n_items_explicit_larger(self):
        db = TransactionDatabase([[0]], n_items=100)
        assert db.n_items == 100

    def test_n_items_too_small_rejected(self):
        with pytest.raises(DatasetError, match="contains item id"):
            TransactionDatabase([[5]], n_items=3)

    def test_negative_item_rejected(self):
        with pytest.raises(DatasetError, match=">= 0"):
            TransactionDatabase([[-1, 2]])

    def test_from_arrays_roundtrip(self, paper_db):
        db2 = TransactionDatabase.from_arrays(
            paper_db.items_flat.copy(), paper_db.offsets.copy(), paper_db.n_items
        )
        assert db2 == paper_db

    def test_from_arrays_bad_offsets(self):
        with pytest.raises(DatasetError):
            TransactionDatabase.from_arrays(
                np.array([1, 2], dtype=np.int32),
                np.array([0, 5], dtype=np.int64),
                4,
            )

    def test_from_arrays_decreasing_offsets(self):
        with pytest.raises(DatasetError, match="non-decreasing"):
            TransactionDatabase.from_arrays(
                np.array([1, 2], dtype=np.int32),
                np.array([0, 2, 1, 2], dtype=np.int64),
                4,
            )

    def test_from_arrays_item_out_of_range(self):
        with pytest.raises(DatasetError, match="out of range"):
            TransactionDatabase.from_arrays(
                np.array([9], dtype=np.int32),
                np.array([0, 1], dtype=np.int64),
                4,
            )


class TestAccess:
    def test_getitem_negative_index(self, paper_db):
        assert paper_db[-1].tolist() == [1, 3, 4, 5, 6]

    def test_getitem_out_of_range(self, paper_db):
        with pytest.raises(IndexError):
            paper_db[4]
        with pytest.raises(IndexError):
            paper_db[-5]

    def test_iteration_matches_indexing(self, paper_db):
        for i, row in enumerate(paper_db):
            assert np.array_equal(row, paper_db[i])

    def test_arrays_read_only(self, paper_db):
        with pytest.raises(ValueError):
            paper_db.items_flat[0] = 99
        with pytest.raises(ValueError):
            paper_db.offsets[0] = 1

    def test_equality_and_hash(self, paper_db):
        clone = TransactionDatabase(
            [[1, 2, 3, 4, 5], [2, 3, 4, 5, 6], [3, 4, 6, 7], [1, 3, 4, 5, 6]],
            n_items=8,
        )
        assert clone == paper_db
        assert hash(clone) == hash(paper_db)

    def test_inequality_different_universe(self, paper_db):
        other = TransactionDatabase([row.tolist() for row in paper_db], n_items=9)
        assert other != paper_db


class TestSupports:
    def test_item_supports_match_paper(self, paper_db):
        # Fig 2B: item 3 and 4 appear in all four transactions.
        s = paper_db.item_supports()
        assert s[3] == 4 and s[4] == 4
        assert s[7] == 1
        assert s[0] == 0

    def test_contains_mask(self, paper_db):
        mask = paper_db.contains([1, 4])
        assert mask.tolist() == [True, False, False, True]

    def test_support_pair(self, paper_db):
        assert paper_db.support([1, 4]) == 2
        assert paper_db.support([3, 4]) == 4

    def test_support_empty_itemset_counts_all(self, paper_db):
        assert paper_db.support([]) == 4

    def test_contains_out_of_universe(self, paper_db):
        with pytest.raises(DatasetError):
            paper_db.support([99])


class TestStats:
    def test_paper_example_stats(self, paper_db):
        s = paper_db.stats()
        assert s.n_transactions == 4
        assert s.n_items == 8
        assert s.avg_length == pytest.approx((5 + 5 + 4 + 5) / 4)
        assert s.max_length == 5
        assert s.min_length == 4

    def test_density(self):
        db = TransactionDatabase([[0, 1], [0, 1]], n_items=2)
        assert db.stats().density == 1.0

    def test_empty_stats(self, empty_db):
        s = empty_db.stats()
        assert s.avg_length == 0.0
        assert s.density == 0.0

    def test_table_row_format(self, paper_db):
        row = paper_db.stats().as_table_row("demo", "Real")
        assert "demo" in row and "Real" in row and "4" in row


class TestDenseConversions:
    def test_to_dense_paper_example(self, paper_db):
        dense = paper_db.to_dense()
        assert dense.shape == (4, 8)
        # Fig 2: transaction 0 = {1,2,3,4,5}
        assert dense[0].tolist() == [False] + [True] * 5 + [False, False]
        assert int(dense.sum()) == paper_db.items_flat.size

    def test_roundtrip(self, small_db):
        assert TransactionDatabase.from_dense(small_db.to_dense()) == small_db

    def test_from_dense_01_matrix(self):
        db = TransactionDatabase.from_dense(np.array([[0, 1, 1], [1, 0, 0]]))
        assert [row.tolist() for row in db] == [[1, 2], [0]]

    def test_from_dense_rejects_1d(self):
        with pytest.raises(DatasetError, match="2-D"):
            TransactionDatabase.from_dense(np.array([1, 0, 1]))

    def test_empty_dense(self):
        db = TransactionDatabase.from_dense(np.zeros((0, 5), dtype=bool))
        assert len(db) == 0 and db.n_items == 5
