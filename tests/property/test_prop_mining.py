"""Property-based tests: mining invariants across all algorithms.

The heart of the reproduction's correctness story: on arbitrary small
databases, every algorithm returns exactly the brute-force frequent
itemsets, the results are downward closed, and the paper's plan/engine
variants are all equivalent.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ALGORITHMS, GPAprioriConfig, gpapriori_mine, mine
from repro.datasets import TransactionDatabase
from tests.conftest import brute_force_frequent
from tests.property.strategies import transaction_databases

SLOW_SETTINGS = settings(max_examples=25, deadline=None)


class TestOracleEquivalence:
    @SLOW_SETTINGS
    @given(transaction_databases(max_items=8, max_transactions=25), st.data())
    def test_gpapriori_equals_oracle(self, db, data):
        min_count = data.draw(
            st.integers(min_value=1, max_value=max(1, len(db)))
        )
        want = brute_force_frequent(db, min_count)
        got = gpapriori_mine(db, min_count)
        assert got.as_dict() == want

    @SLOW_SETTINGS
    @given(transaction_databases(max_items=7, max_transactions=20), st.data())
    def test_every_algorithm_equals_oracle(self, db, data):
        min_count = data.draw(
            st.integers(min_value=1, max_value=max(1, len(db)))
        )
        want = brute_force_frequent(db, min_count)
        for algorithm in ALGORITHMS:
            got = mine(db, min_count, algorithm=algorithm)
            assert got.as_dict() == want, algorithm

    @SLOW_SETTINGS
    @given(transaction_databases(max_items=8, max_transactions=25), st.data())
    def test_plans_and_engines_agree(self, db, data):
        min_count = data.draw(
            st.integers(min_value=1, max_value=max(1, len(db)))
        )
        ref = gpapriori_mine(db, min_count).as_dict()
        for plan in ("complete", "equivalence"):
            for engine in ("vectorized", "simulated"):
                cfg = GPAprioriConfig(plan=plan, engine=engine, block_size=4)
                got = gpapriori_mine(db, min_count, config=cfg)
                assert got.as_dict() == ref, (plan, engine)

    @SLOW_SETTINGS
    @given(transaction_databases(max_items=8, max_transactions=25), st.data())
    def test_eclat_diffsets_agree(self, db, data):
        min_count = data.draw(
            st.integers(min_value=1, max_value=max(1, len(db)))
        )
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
