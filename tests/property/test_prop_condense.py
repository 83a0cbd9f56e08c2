"""Property-based tests: condensed representations are lossless."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import gpapriori_mine
from repro.rules import (
    closed_itemsets,
    maximal_itemsets,
    support_from_closed,
)
from tests.property.strategies import transaction_databases

SLOW = settings(max_examples=25, deadline=None)


class TestClosedProperties:
    @SLOW
    @given(transaction_databases(max_items=7, max_transactions=20))
    def test_closed_reconstruction_lossless(self, db):
        """Every frequent itemset's support is exactly recoverable from
        the closed representation — the defining property."""
        if len(db) == 0:
            return
        result = gpapriori_mine(db, max(1, len(db) // 4))
        closed = closed_itemsets(result)
        for itemset in result:
            assert (
                support_from_closed(closed, itemset.items) == itemset.support
            )

    @SLOW
    @given(transaction_databases(max_items=7, max_transactions=20))
    def test_no_closed_set_absorbed(self, db):
        """No closed itemset has an equal-support frequent superset."""
        result = gpapriori_mine(db, max(1, len(db) // 4))
        supports = result.as_dict()
        for c in closed_itemsets(result):
            s = set(c.items)
            for other, osup in supports.items():
                if s < set(other):
                    assert osup < c.support

    @SLOW
    @given(transaction_databases(max_items=7, max_transactions=20))
    def test_maximal_subset_of_closed(self, db):
        result = gpapriori_mine(db, max(1, len(db) // 4))
        closed = {i.items for i in closed_itemsets(result)}
        maximal = {i.items for i in maximal_itemsets(result)}
        assert maximal <= closed

    @SLOW
    @given(transaction_databases(max_items=7, max_transactions=20))
    def test_maximal_cover(self, db):
        """Maximal sets cover every frequent itemset by inclusion, and
        none is a subset of another."""
        result = gpapriori_mine(db, max(1, len(db) // 4))
        maximal = [set(i.items) for i in maximal_itemsets(result)]
        for itemset in result:
            assert any(set(itemset.items) <= m for m in maximal)
        for i, a in enumerate(maximal):
            for b in maximal[i + 1 :]:
                assert not (a <= b or b <= a)


class TestMultiGpuProperties:
    @SLOW
    @given(
        transaction_databases(max_items=7, max_transactions=20),
        st.integers(min_value=1, max_value=9),
    )
    def test_partitioning_invariant(self, db, n_devices):
        from repro import mine
        from tests.conftest import fleet_clocks

        if len(db) == 0:
            return
        min_count = max(1, len(db) // 4)
        ref = gpapriori_mine(db, min_count)
        got = mine(db, min_count, engine="multigpu", devices=n_devices)
        assert got.same_itemsets(ref)
        makespan, single = fleet_clocks(got)
        assert 0 < makespan and 0 < single <= n_devices * makespan * (1 + 1e-9)

    @SLOW
    @given(
        transaction_databases(max_items=7, max_transactions=20),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_hybrid_static_share_invariant(self, db, share):
        from repro import StaticBalancer, hybrid_mine

        if len(db) == 0:
            return
        min_count = max(1, len(db) // 4)
        ref = gpapriori_mine(db, min_count)
        got = hybrid_mine(db, min_count, balancer=StaticBalancer(share))
        assert got.same_itemsets(ref)
