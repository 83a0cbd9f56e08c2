"""Unit tests for vectorized bitset primitives."""

import numpy as np
import pytest

from repro.bitset import (
    BitsetMatrix,
    popcount_words,
    support_many,
    support_words,
    tile_bounds,
)
from repro.bitset import ops
from repro.bitset.ops import and_rows, row_supports
from repro.bitset.hybrid import HybridLayout, hybrid_supports
from repro.bitset.ops import _POPCOUNT16
from repro.errors import BitsetError


class TestPopcount:
    def test_known_words(self):
        words = np.array([0, 1, 0xFFFFFFFF, 0x80000000, 0xAAAAAAAA], dtype=np.uint32)
        assert popcount_words(words).tolist() == [0, 1, 32, 1, 16]

    def test_total(self):
        words = np.array([[3, 1], [0, 7]], dtype=np.uint32)
        assert row_supports(words).tolist() == [2 + 1, 0 + 3]

    def test_matches_lookup_table_fallback(self):
        rng = np.random.default_rng(1)
        words = rng.integers(0, 2**32, size=1000, dtype=np.uint32)
        via_numpy = popcount_words(words)
        lo = _POPCOUNT16[words & np.uint32(0xFFFF)]
        hi = _POPCOUNT16[words >> np.uint32(16)]
        assert np.array_equal(np.asarray(via_numpy, dtype=np.int64), (lo + hi).astype(np.int64))

    def test_rejects_wrong_dtype(self):
        with pytest.raises(BitsetError, match="uint32"):
            popcount_words(np.zeros(4, dtype=np.uint64))

    def test_empty(self):
        assert row_supports(np.zeros((2, 0), dtype=np.uint32)).tolist() == [0, 0]


class TestIntersections:
    def test_pair(self):
        words = np.array([[0b1100, 0b1111], [0b1010, 0b0000]], dtype=np.uint32)
        assert and_rows(words, np.array([[0, 1]])).tolist() == [[0b1000, 0]]

    def test_and_rows_matches_sets(self, paper_db):
        m = BitsetMatrix.from_database(paper_db)
        row = and_rows(m.words, np.array([[1, 4]]))[0]
        got = np.unpackbits(row.view(np.uint8), bitorder="little")[:4]
        assert got.tolist() == [1, 0, 0, 1]  # transactions {0,3}


class TestSupportMany:
    def test_matches_oracle(self, small_db):
        m = BitsetMatrix.from_database(small_db)
        cands = np.array([[0, 1], [1, 2], [3, 4]])
        got = support_many(m, cands)
        want = [small_db.support(c) for c in cands]
        assert got.tolist() == want

    def test_k1(self, small_db):
        m = BitsetMatrix.from_database(small_db)
        cands = np.arange(small_db.n_items).reshape(-1, 1)
        assert np.array_equal(support_many(m, cands), small_db.item_supports())

    def test_k4(self, dense_db):
        m = BitsetMatrix.from_database(dense_db)
        cands = np.array([[0, 1, 2, 3]])
        assert support_many(m, cands)[0] == dense_db.support([0, 1, 2, 3])

    def test_empty_candidates(self, small_db):
        m = BitsetMatrix.from_database(small_db)
        assert support_many(m, np.empty((0, 2), dtype=np.int64)).size == 0

    def test_rejects_1d(self, small_db):
        m = BitsetMatrix.from_database(small_db)
        with pytest.raises(BitsetError):
            support_many(m, np.array([1, 2]))

    def test_rejects_k0(self, small_db):
        m = BitsetMatrix.from_database(small_db)
        with pytest.raises(BitsetError, match="k >= 1"):
            support_many(m, np.empty((3, 0), dtype=np.int64))

    def test_rejects_out_of_range_item(self, small_db):
        m = BitsetMatrix.from_database(small_db)
        with pytest.raises(BitsetError):
            support_many(m, np.array([[0, 99]]))

    def test_tiling_consistency(self):
        """Results identical regardless of internal tile boundaries."""
        rng = np.random.default_rng(2)
        sets = [rng.choice(600, size=rng.integers(1, 80), replace=False) for _ in range(30)]
        m = BitsetMatrix.from_sets(sets, n_transactions=600)
        cands = np.array([[i, (i + 1) % 30] for i in range(30)])
        got = support_many(m, cands)
        want = [
            int(np.intersect1d(sets[a], sets[b]).size) for a, b in cands
        ]
        assert got.tolist() == want

    def test_duplicate_items_in_candidate(self, small_db):
        """AND is idempotent: {i, i} has the support of {i}."""
        m = BitsetMatrix.from_database(small_db)
        got = support_many(m, np.array([[3, 3]]))
        assert got[0] == small_db.support([3])


class TestTileBounds:
    def test_covers_range_exactly(self):
        bounds = tile_bounds(100, row_bytes=64, budget_bytes=1024)
        assert bounds[0][0] == 0 and bounds[-1][1] == 100
        for (a, b), (c, d) in zip(bounds, bounds[1:]):
            assert b == c and a < b
        assert all(b - a <= 1024 // 64 for a, b in bounds)

    def test_empty(self):
        assert tile_bounds(0, row_bytes=64) == []

    def test_huge_rows_still_one_candidate_per_tile(self):
        bounds = tile_bounds(5, row_bytes=1 << 30, budget_bytes=1024)
        assert bounds == [(i, i + 1) for i in range(5)]


class TestSupportWords:
    def test_matches_support_many(self, small_db):
        m = BitsetMatrix.from_database(small_db)
        cands = np.array([[i, (i + 1) % 12] for i in range(12)])
        assert np.array_equal(
            support_words(m.words, cands), support_many(m, cands)
        )

    def test_sharded_equals_whole(self, small_db):
        """Tiling is invisible in the results: counting tile-by-tile
        and concatenating equals one whole-buffer call."""
        m = BitsetMatrix.from_database(small_db)
        cands = np.array([[i, (i + 1) % 12, (i + 2) % 12] for i in range(12)])
        whole = support_words(m.words, cands)
        parts = [
            support_words(m.words, cands[a:b])
            for a, b in tile_bounds(len(cands), m.n_words * 4, budget_bytes=m.n_words * 16)
        ]
        assert np.array_equal(np.concatenate(parts), whole)


class TestLookupTablePath:
    """NumPy < 2 has no ``np.bitwise_count``; the core then counts each
    ``uint64`` block through :func:`popcount_words` on its ``uint32``
    view, and must give the same supports."""

    @pytest.mark.parametrize("aligned", [True, False])
    def test_same_supports_without_bitwise_count(self, small_db, aligned, monkeypatch):
        m = BitsetMatrix.from_database(small_db, aligned=aligned)
        layout = HybridLayout.from_matrix(m, 0.3)
        assert layout.n_dense and layout.n_sparse
        rng = np.random.default_rng(7)
        cands = rng.integers(0, m.n_items, size=(200, 3))
        expected = (support_words(m.words, cands), hybrid_supports(layout, cands))
        monkeypatch.setattr(ops, "_HAS_BITWISE_COUNT", False)
        assert np.array_equal(support_words(m.words, cands), expected[0])
        assert np.array_equal(hybrid_supports(layout, cands), expected[1])
        assert np.array_equal(expected[0], expected[1])
