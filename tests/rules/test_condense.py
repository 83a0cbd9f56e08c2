"""Unit tests for closed/maximal condensed representations."""

import pytest

from repro import mine
from repro.core.itemset import MiningResult
from repro.errors import MiningError
from repro.rules import (
    closed_itemsets,
    condensation_ratio,
    maximal_itemsets,
    support_from_closed,
)


@pytest.fixture
def lattice_result():
    """Hand-built lattice: {0,1} closed, (0) and (1) absorbed by it.

    DB intuition: 5 tx of {0,1}, 2 of {2}, 1 of {0,1,2}.
    """
    return MiningResult(
        {
            (0,): 6,
            (1,): 6,
            (2,): 3,
            (0, 1): 6,
            (0, 2): 1,
            (1, 2): 1,
            (0, 1, 2): 1,
        },
        n_transactions=8,
        min_support=1,
    )


class TestClosed:
    def test_hand_built(self, lattice_result):
        got = {(i.items, i.support) for i in closed_itemsets(lattice_result)}
        # (0) and (1) absorbed by (0,1) at support 6; (0,2) & (1,2)
        # absorbed by (0,1,2) at support 1; (2) stays (support 3).
        assert got == {((0, 1), 6), ((2,), 3), ((0, 1, 2), 1)}

    def test_closed_superset_of_maximal(self, small_db):
        result = mine(small_db, 6)
        closed = {i.items for i in closed_itemsets(result)}
        maximal = {i.items for i in maximal_itemsets(result)}
        assert maximal <= closed

    def test_all_closed_in_result(self, small_db):
        result = mine(small_db, 6)
        for i in closed_itemsets(result):
            assert result.support_of(i.items) == i.support

    def test_lossless_reconstruction(self, small_db):
        """support_from_closed recovers every frequent itemset exactly."""
        result = mine(small_db, 6)
        closed = closed_itemsets(result)
        for itemset in result:
            assert (
                support_from_closed(closed, itemset.items) == itemset.support
            )

    def test_reconstruction_rejects_infrequent(self, small_db):
        result = mine(small_db, 6)
        closed = closed_itemsets(result)
        with pytest.raises(MiningError, match="not frequent"):
            support_from_closed(closed, (0, 1, 2, 3, 4, 5, 6, 7))


class TestMaximal:
    def test_hand_built(self, lattice_result):
        got = {i.items for i in maximal_itemsets(lattice_result)}
        assert got == {(0, 1, 2)}

    def test_matches_result_method(self, small_db, dense_db):
        """Both entry points equal a brute-force all-pairs superset check."""
        for db, s in ((small_db, 6), (dense_db, 15)):
            result = mine(db, s)
            frequent = result.as_dict()
            brute = {
                items
                for items in frequent
                if not any(
                    len(other) > len(items) and set(items) <= set(other)
                    for other in frequent
                )
            }
            assert {i.items for i in maximal_itemsets(result)} == brute
            assert {i.items for i in result.maximal_itemsets()} == brute

    def test_every_frequent_has_maximal_superset(self, small_db):
        result = mine(small_db, 8)
        maximal = [set(i.items) for i in maximal_itemsets(result)]
        for itemset in result:
            assert any(set(itemset.items) <= m for m in maximal)


class TestCondensationRatio:
    def test_dense_data_compresses(self):
        from repro.datasets import dataset_analog

        db = dataset_analog("chess", scale=0.05)
        result = mine(db, 0.85)
        report = condensation_ratio(result)
        assert report["maximal"] <= report["closed"] <= report["frequent"]
        assert report["maximal_ratio"] < 0.5  # dense data condenses hard

    def test_empty_result(self):
        report = condensation_ratio(MiningResult({}, 5, 1))
        assert report["closed_ratio"] == 1.0
