"""Property-based tests: candidate-generation and counting-trie invariants."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trie import HashTrie, join_frequent
from repro.trie.level import join_level
from tests.property.strategies import itemset_levels, transaction_databases


class TestJoinProperties:
    @settings(max_examples=60)
    @given(itemset_levels(max_item=9, k=2, max_count=20))
    def test_join_equals_bruteforce_definition(self, level):
        """join_frequent == {all (k+1)-sets whose every k-subset is in
        the level} — the Apriori candidate-set definition."""
        got = set(join_frequent(level))
        freq = set(level)
        universe = sorted({i for t in level for i in t})
        want = set()
        for combo in combinations(universe, 3):
            if all(
                tuple(combo[:i] + combo[i + 1 :]) in freq for i in range(3)
            ):
                want.add(combo)
        assert got == want

    @given(itemset_levels(max_item=9, k=1, max_count=12))
    def test_level1_join_is_all_pairs(self, level):
        got = join_frequent(level)
        items = sorted(t[0] for t in level)
        want = [
            (a, b) for i, a in enumerate(items) for b in items[i + 1 :]
        ]
        assert got == want


def oracle_join(level):
    """Brute-force next generation: every (k+1)-combination of the
    level's items whose k-subsets are all in the level, sorted, with
    each one's k-prefix position in the sorted level."""
    rows = sorted(level)
    if not rows:
        return [], []
    k = len(rows[0])
    position = {row: i for i, row in enumerate(rows)}
    universe = sorted({i for row in rows for i in row})
    cands = [
        c
        for c in combinations(universe, k + 1)
        if all(s in position for s in combinations(c, k))
    ]
    return cands, [position[c[:k]] for c in cands]


def check_table(level, cands, subsets):
    """Column d of a candidate's subset table is its level row without item d."""
    assert subsets.dtype == np.int32 and subsets.shape == cands.shape
    for d in range(cands.shape[1]):
        assert (level[subsets[:, d]] == np.delete(cands, d, axis=1)).all()


def check_against_oracle(level, k):
    array = np.array(sorted(level), dtype=np.int32).reshape(-1, k)
    cands, subsets = join_level(array)
    parents = subsets[:, -1]
    want, want_parents = oracle_join(level)
    assert cands.dtype == np.int32 and cands.shape == (len(want), k + 1)
    assert list(map(tuple, cands.tolist())) == want
    assert parents.tolist() == want_parents
    # each parent row is its candidate's k-prefix
    assert (array[parents] == cands[:, :k]).all()
    check_table(array, cands, subsets)


class TestJoinLevelOracle:
    """join_level against a brute force sharing no trie code."""

    @settings(max_examples=80)
    @given(st.integers(min_value=1, max_value=4), st.data())
    def test_random_levels(self, k, data):
        level = data.draw(itemset_levels(max_item=8, k=k, max_count=30))
        check_against_oracle(level, k)

    @settings(max_examples=40)
    @given(st.integers(min_value=2, max_value=4), st.data())
    def test_dense_levels(self, k, data):
        """All k-subsets of a few items minus some: many long candidates."""
        items = data.draw(st.lists(st.integers(0, 40), min_size=k, max_size=k + 3, unique=True))
        full = list(combinations(sorted(items), k))
        drop = data.draw(st.sets(st.sampled_from(full), max_size=2))
        check_against_oracle([t for t in full if t not in drop], k)

    @pytest.mark.parametrize(
        "level, k",
        [
            ([], 1),  # empty level
            ([], 3),
            ([(4, 9)], 2),  # one row
            ([(0,), (2,), (5,), (6,)], 1),  # k = 1: one group, all pairs
            ([(1, 2, 3), (1, 2, 5), (1, 2, 7)], 3),  # one group: subsets missing
            ([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)], 2),  # closed groups
            ([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (5, 6), (5, 7), (6, 7)], 2),
        ],
    )
    def test_edge_levels(self, level, k):
        check_against_oracle(level, k)


class TestSubsetTableProperties:
    """Chained subset tables against the same brute force."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(0, 11), min_size=2, max_size=12, unique=True),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=0.4, max_value=1.0),
    )
    def test_chained_generations(self, items, seed, keep_fraction):
        """Generations chained as levelwise chains them: a random
        frequent subset of each generation's candidates, with its rows
        of the table, is the next level; each step matches the oracle
        and the standalone path, which rebuilds the table."""
        rng = np.random.default_rng(seed)
        level = np.array(sorted(items), dtype=np.int32).reshape(-1, 1)
        subsets = np.zeros((level.shape[0], 1), dtype=np.int32)
        for _ in range(4):
            cands, cand_subsets = join_level(level, subsets)
            want, want_parents = oracle_join(list(map(tuple, level.tolist())))
            assert list(map(tuple, cands.tolist())) == want
            assert cand_subsets[:, -1].tolist() == want_parents
            check_table(level, cands, cand_subsets)
            alone, alone_subsets = join_level(level)
            assert np.array_equal(alone, cands)
            assert np.array_equal(alone_subsets, cand_subsets)
            frequent = rng.random(cands.shape[0]) < keep_fraction
            level, subsets = cands[frequent], cand_subsets[frequent]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=9), st.data())
    def test_large_item_ids(self, k, data):
        """Ids up to 2**31 - 1 at widths up to 9, where a mixed-radix
        int64 key of whole rows would overflow."""
        top = 2**31 - 1
        items = data.draw(
            st.lists(
                st.one_of(st.integers(0, 40), st.integers(top - 40, top)),
                min_size=k,
                max_size=k + 3,
                unique=True,
            )
        )
        full = list(combinations(sorted(items), k))
        drop = data.draw(st.sets(st.sampled_from(full), max_size=2))
        check_against_oracle([t for t in full if t not in drop], k)


class TestHashTrieProperties:
    @settings(max_examples=30)
    @given(transaction_databases(max_items=8, max_transactions=20), st.data())
    def test_counts_equal_subset_scan(self, db, data):
        if db.n_items < 2:
            return
        k = data.draw(st.integers(min_value=1, max_value=min(3, db.n_items)))
        cands = data.draw(
            st.lists(
                st.lists(
                    st.integers(min_value=0, max_value=db.n_items - 1),
                    min_size=k,
                    max_size=k,
                    unique=True,
                ).map(lambda x: tuple(sorted(x))),
                min_size=1,
                max_size=10,
                unique=True,
            )
        )
        ht = HashTrie(cands)
        ht.count_database(db)
        for items, count in ht.supports():
            assert count == db.support(items)
