"""Property-based tests: mining invariants across all algorithms.

Structural invariants of a mining result on arbitrary small databases:
downward closure, exact supports, threshold monotonicity, ``max_k``
prefixes and relabeling. That every algorithm and every accepted option
combination returns exactly the brute-force frequent itemsets is
``test_prop_oracle_matrix``'s job.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import gpapriori_mine, mine
from repro.datasets import TransactionDatabase
from tests.property.strategies import transaction_databases

SLOW_SETTINGS = settings(max_examples=25, deadline=None)


class TestOracleEquivalence:
    @SLOW_SETTINGS
    @given(transaction_databases(max_items=8, max_transactions=25), st.data())
    def test_eclat_diffsets_agree(self, db, data):
        min_count = data.draw(st.integers(min_value=1, max_value=max(1, len(db))))
        a = mine(db, min_count, algorithm="eclat", diffsets=False)
        b = mine(db, min_count, algorithm="eclat", diffsets=True)
        assert a.as_dict() == b.as_dict()


class TestStructuralInvariants:
    @SLOW_SETTINGS
    @given(transaction_databases(max_items=8, max_transactions=25))
    def test_downward_closure(self, db):
        result = gpapriori_mine(db, max(1, len(db) // 4))
        d = result.as_dict()
        for items, support in d.items():
            for i in range(len(items)):
                subset = items[:i] + items[i + 1 :]
                if subset:
                    assert subset in d
                    assert d[subset] >= support

    @SLOW_SETTINGS
    @given(transaction_databases(max_items=8, max_transactions=25))
    def test_supports_are_exact(self, db):
        """Every reported support equals a direct horizontal count."""
        result = gpapriori_mine(db, max(1, len(db) // 3))
        for itemset in result:
            assert itemset.support == db.support(itemset.items)

    @SLOW_SETTINGS
    @given(transaction_databases(max_items=8, max_transactions=25), st.data())
    def test_threshold_monotonicity(self, db, data):
        if len(db) < 2:
            return
        lo = data.draw(st.integers(min_value=1, max_value=len(db) - 1))
        hi = data.draw(st.integers(min_value=lo + 1, max_value=len(db)))
        low_result = gpapriori_mine(db, lo).as_dict()
        high_result = gpapriori_mine(db, hi).as_dict()
        assert set(high_result) <= set(low_result)

    @SLOW_SETTINGS
    @given(transaction_databases(max_items=8, max_transactions=25), st.data())
    def test_max_k_is_prefix_of_full_run(self, db, data):
        min_count = max(1, len(db) // 4)
        k = data.draw(st.integers(min_value=1, max_value=4))
        capped = gpapriori_mine(db, min_count, max_k=k).as_dict()
        full = gpapriori_mine(db, min_count).as_dict()
        assert capped == {t: s for t, s in full.items() if len(t) <= k}

    @SLOW_SETTINGS
    @given(transaction_databases(max_items=8, max_transactions=25), st.data())
    def test_remap_preserves_itemset_count(self, db, data):
        """Relabeled databases mine isomorphic results."""
        min_count = max(1, len(db) // 3)
        original = gpapriori_mine(db, min_count)
        new_ids = np.array(data.draw(st.permutations(range(db.n_items))), dtype=np.int64)
        remapped_db = TransactionDatabase(
            [np.sort(new_ids[row]).tolist() for row in db], n_items=db.n_items
        )
        remapped = gpapriori_mine(remapped_db, min_count)
        assert len(original) == len(remapped)
        # supports multiset is invariant under relabeling
        assert sorted(i.support for i in original) == sorted(
            i.support for i in remapped
        )
