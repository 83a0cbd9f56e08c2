"""Unit tests for the array-encoded level join, its subset tables, tuple adapter and row keys."""

from itertools import combinations

import numpy as np
import pytest

from repro.errors import TrieError
from repro.trie.level import join_frequent, join_level, level_subsets, row_keys


def _expected(level):
    """Every (k+1)-set whose k-subsets are all in ``level``, sorted."""
    freq = set(level)
    k = len(level[0])
    universe = sorted({i for t in level for i in t})
    return [c for c in combinations(universe, k + 1) if set(combinations(c, k)) <= freq]


class TestJoinLevel:
    def test_level1_is_all_pairs(self):
        cands, subsets = join_level(np.array([[1], [3], [7]]))
        parents = subsets[:, -1]
        assert cands.tolist() == [[1, 3], [1, 7], [3, 7]]
        assert parents.tolist() == [0, 0, 1]

    def test_groups_do_not_join_across_prefixes(self):
        level = np.array([[1, 2], [1, 3], [2, 3], [2, 4], [3, 4]])
        cands, subsets = join_level(level)
        parents = subsets[:, -1]
        assert cands.tolist() == [[1, 2, 3], [2, 3, 4]]
        assert parents.tolist() == [0, 2]

    def test_infrequent_subset_pruned(self):
        cands, subsets = join_level(np.array([[1, 2], [1, 3]]))
        parents = subsets[:, -1]
        assert cands.shape == (0, 3)
        assert parents.shape == (0,)

    @pytest.mark.parametrize("shape", [(0, 1), (0, 4), (1, 3)])
    def test_too_small_levels_join_to_nothing(self, shape):
        cands, subsets = join_level(np.zeros(shape, dtype=np.int32))
        parents = subsets[:, -1]
        assert cands.shape == (0, shape[1] + 1)
        assert cands.dtype == np.int32
        assert parents.dtype == np.int32

    def test_rejects_non_matrix(self):
        with pytest.raises(TrieError, match="2-d"):
            join_level(np.arange(4))


class TestSubsetTable:
    LEVEL = np.array([[1, 2], [1, 3], [2, 3]], dtype=np.int32)

    def test_level_subsets_rank_the_dropped_item_rows(self):
        # the 1-subsets (1,), (2,), (3,) rank 0, 1, 2; column d drops item d
        assert level_subsets(self.LEVEL).tolist() == [[1, 0], [2, 0], [2, 1]]
        assert level_subsets(np.array([[4], [9]])).tolist() == [[0], [0]]

    def test_candidate_table_points_at_each_dropped_item_row(self):
        cands, subsets = join_level(self.LEVEL, level_subsets(self.LEVEL))
        assert cands.tolist() == [[1, 2, 3]]
        # (1,2,3) without 1, 2, 3: rows (2,3), (1,3), (1,2) of the level
        assert subsets.tolist() == [[2, 1, 0]]
        assert subsets.dtype == np.int32

    def test_a_given_table_is_used_as_is(self):
        # ids of a larger previous generation, gaps included: only their
        # order matters, not their values
        sparse = level_subsets(self.LEVEL) * 5 + 3
        assert join_level(self.LEVEL, sparse)[0].tolist() == [[1, 2, 3]]

    @pytest.mark.parametrize(
        "subsets, match",
        [
            (np.zeros((2, 2), dtype=np.int64), "shape"),  # too few rows
            (np.zeros((3, 3), dtype=np.int64), "shape"),  # too wide
            (np.zeros(3, dtype=np.int64), "shape"),  # one-dimensional
            (np.zeros((3, 2), dtype=np.float64), "integer"),
            (np.full((3, 2), "0"), "integer"),
            (np.array([[1, 0], [2, 0], [2, -1]]), r"\[0, 2\*\*31\)"),
            (np.array([[1, 0], [2, 0], [2, 2**31]]), r"\[0, 2\*\*31\)"),
            ([[1, 0], [2, 0], [2]], "array"),  # ragged
        ],
    )
    def test_rejects_a_table_that_does_not_fit_the_level(self, subsets, match):
        with pytest.raises(TrieError, match=match):
            join_level(self.LEVEL, subsets)

    def test_checks_the_table_of_a_too_small_level(self):
        with pytest.raises(TrieError, match="shape"):
            join_level(np.array([[1, 2]]), np.zeros((1, 1), dtype=np.int64))


class TestExactKeysAtAnyDepth:
    """One int64 per row overflows once n_items**k >= 2**63: with 942
    items (the T40 analog) that is width 7. The keys must stay exact."""

    N_ITEMS = 942

    @pytest.mark.parametrize("k", [6, 7, 8])
    def test_join_at_packing_boundary(self, k):
        assert (self.N_ITEMS**k >= 2**63) == (k >= 7)
        # k + 2 items spread over the whole id range, up to the largest
        spread = [round(i * (self.N_ITEMS - 1) / (k + 1)) for i in range(k + 2)]
        level = sorted(combinations(spread, k))
        level.remove(tuple(spread[1 : k + 1]))  # leave two supersets unsupported
        cands, subsets = join_level(np.array(level, dtype=np.int32))
        parents = subsets[:, -1]
        expected = _expected(level)
        assert len(expected) == k
        assert list(map(tuple, cands.tolist())) == expected
        assert (np.array(level)[parents] == cands[:, :-1]).all()

    def test_keys_sort_like_rows(self):
        rng = np.random.default_rng(7)
        rows = np.sort(rng.choice(self.N_ITEMS, size=(200, 9)), axis=1).astype(np.int32)
        by_key = rows[np.argsort(row_keys(rows), kind="stable")]
        by_row = rows[np.lexsort(rows.T[::-1])]
        assert by_key.tolist() == by_row.tolist()


class TestJoinFrequent:
    def test_basic(self):
        got = join_frequent([(1,), (2,), (3,)])
        assert got == [(1, 2), (1, 3), (2, 3)]

    def test_prefix_blocks(self):
        got = join_frequent([(1, 2), (1, 3), (2, 4)])
        # only (1,2)+(1,3) share a prefix; (1,2,3) needs (2,3) frequent
        assert got == []

    def test_with_closure(self):
        got = join_frequent([(1, 2), (1, 3), (2, 3)])
        assert got == [(1, 2, 3)]

    def test_empty(self):
        assert join_frequent([]) == []

    def test_deduplicates_input(self):
        got = join_frequent([(1,), (1,), (2,)])
        assert got == [(1, 2)]

    def test_mixed_lengths_rejected(self):
        with pytest.raises(TrieError, match="equal length"):
            join_frequent([(1,), (1, 2)])

    def test_unsorted_tuple_rejected(self):
        with pytest.raises(TrieError, match="strictly increasing"):
            join_frequent([(2, 1)])

    def test_candidate_superset_of_true_candidates(self, small_db):
        """Every truly frequent (k+1)-itemset appears among candidates
        joined from the frequent k-level (Apriori completeness)."""
        from repro import mine

        result = mine(small_db, 6)
        freq = result.as_dict()
        for k in range(1, result.max_size()):
            level = [t for t in freq if len(t) == k]
            candidates = set(join_frequent(level))
            true_next = {t for t in freq if len(t) == k + 1}
            assert true_next <= candidates
