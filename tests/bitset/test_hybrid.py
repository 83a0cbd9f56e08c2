"""Unit tests for the adaptive hybrid vertical layout."""

import numpy as np
import pytest

from repro.bitset import BitsetMatrix, support_many
from repro.bitset.ops import and_rows
from repro.bitset.hybrid import (
    HybridLayout,
    auto_dense_threshold,
    build_layout,
    count_cost_stats,
    densify_rows,
    hybrid_supports,
    hybrid_tables,
)
from repro.core.sharding import ShardPlan
from repro.datasets import TransactionDatabase
from repro.errors import BitsetError


@pytest.fixture
def db():
    # item 0 is in everything (dense at any sane threshold), items 4-5
    # are rare (sparse), the middle sits near 50%
    return TransactionDatabase(
        [
            [0, 1, 2],
            [0, 1, 3],
            [0, 2, 3],
            [0, 1, 2, 3],
            [0, 4],
            [0, 1, 2, 5],
            [0, 3],
            [0, 1],
        ]
    )


@pytest.fixture
def matrix(db):
    return BitsetMatrix.from_database(db)


class TestConstruction:
    def test_classification_by_support_density(self, matrix):
        layout = HybridLayout.from_matrix(matrix, 0.5)
        supports = matrix.supports()
        for item in range(matrix.n_items):
            entry = int(layout.row_map[item])
            if supports[item] >= 0.5 * matrix.n_transactions:
                assert entry >= 0, item
            else:
                assert entry < 0, item
        assert layout.n_dense + layout.n_sparse == matrix.n_items

    def test_degenerate_thresholds(self, matrix):
        assert HybridLayout.from_matrix(matrix, 0.0).n_sparse == 0
        # only item 0 (in all transactions) stays dense at 1.0
        top = HybridLayout.from_matrix(matrix, 1.0)
        assert top.n_dense == 1
        assert int(top.row_map[0]) == 0

    def test_item_tidset_round_trips_both_sides(self, db, matrix):
        layout = HybridLayout.from_matrix(matrix, 0.5)
        for item in range(matrix.n_items):
            np.testing.assert_array_equal(
                layout.item_tidset(item), matrix.tidset(item)
            )

    def test_from_database_matches_from_matrix(self, db, matrix):
        a = HybridLayout.from_database(db, 0.5)
        b = HybridLayout.from_matrix(matrix, 0.5)
        np.testing.assert_array_equal(a.row_map, b.row_map)
        np.testing.assert_array_equal(a.dense_words, b.dense_words)
        np.testing.assert_array_equal(a.sparse_tids, b.sparse_tids)

    @pytest.mark.parametrize("tids", [[3, 3], [5, 3]])
    def test_rejects_a_tid_list_that_does_not_strictly_increase(self, tids):
        with pytest.raises(BitsetError, match="slot 0 is not strictly increasing"):
            HybridLayout.from_parts(np.zeros((0, 16), np.uint32), [-1], tids, [0, 2], 40)

    def test_tid_lists_restart_at_each_slot(self):
        """Ids may fall from one slot's last to the next slot's first,
        past an empty slot too; a repeat inside a later slot is named."""
        parts = (np.zeros((0, 16), np.uint32), [-1, -2, -3])
        layout = HybridLayout.from_parts(*parts, [5, 7, 1, 2], [0, 0, 2, 4], 40)
        assert layout.item_tidset(1).tolist() == [5, 7]
        assert layout.item_tidset(2).tolist() == [1, 2]
        with pytest.raises(BitsetError, match="slot 2 is not strictly increasing"):
            HybridLayout.from_parts(*parts, [5, 7, 2, 2], [0, 0, 2, 4], 40)

    def test_byte_accounting(self, matrix):
        layout = HybridLayout.from_matrix(matrix, 0.5)
        assert layout.device_bytes == (
            layout.dense_words.nbytes
            + layout.row_map.nbytes
            + layout.sparse_tids.nbytes
            + layout.sparse_offsets.nbytes
        )
        assert layout.all_dense_bytes == matrix.n_items * matrix.n_words * 4
        assert layout.bytes_saved == layout.all_dense_bytes - layout.device_bytes
        assert layout.riding_bytes == (
            layout.device_bytes - layout.dense_words.nbytes
        )

    def test_as_dict_shape(self, matrix):
        doc = HybridLayout.from_matrix(matrix, 0.5).as_dict()
        assert set(doc) == {
            "n_items",
            "dense_items",
            "sparse_items",
            "dense_threshold",
            "device_bytes",
            "bytes_saved",
        }
        assert doc["dense_items"] + doc["sparse_items"] == doc["n_items"]


class TestAutoThreshold:
    def test_break_even_value(self):
        assert auto_dense_threshold(1024, 32) == 32 / 1024

    def test_empty_database_does_not_divide_by_zero(self):
        assert auto_dense_threshold(0, 16) == 16.0

    def test_build_layout_modes(self, matrix):
        assert build_layout(matrix, "dense") is None
        auto = auto_dense_threshold(matrix.n_transactions, matrix.n_words)
        hybrid = build_layout(matrix, "hybrid")
        assert hybrid.dense_threshold == auto
        assert np.array_equal(
            hybrid.row_map, HybridLayout.from_matrix(matrix, auto).row_map
        )
        assert build_layout(matrix, "hybrid", 0.5).dense_threshold == 0.5
        # "auto" keeps the classification only when it saves bytes:
        # at threshold 0 every item stays dense and the row map costs
        assert build_layout(matrix, "hybrid", 0.0).bytes_saved <= 0
        assert build_layout(matrix, "auto", 0.0) is None
        assert build_layout(matrix, "auto", 0.5).bytes_saved > 0


class TestCounting:
    def test_hybrid_supports_match_dense_pairs(self, matrix):
        layout = HybridLayout.from_matrix(matrix, 0.5)
        n = matrix.n_items
        pairs = np.array(
            [(a, b) for a in range(n) for b in range(a + 1, n)],
            dtype=np.int32,
        )
        np.testing.assert_array_equal(
            hybrid_supports(layout, pairs), support_many(matrix, pairs)
        )

    def test_pure_sparse_and_pure_dense_candidates(self, matrix):
        # candidates entirely on one side exercise the dense-block and
        # densified-table paths
        layout = HybridLayout.from_matrix(matrix, 0.5)
        dense_items = np.nonzero(layout.row_map >= 0)[0]
        sparse_items = np.nonzero(layout.row_map < 0)[0]
        assert dense_items.size >= 2 and sparse_items.size >= 2
        for items in (dense_items[:2], sparse_items[:2]):
            cand = np.ascontiguousarray(items.reshape(1, 2).astype(np.int32))
            np.testing.assert_array_equal(
                hybrid_supports(layout, cand),
                support_many(matrix, cand),
            )

    def test_rejects_empty_candidates(self, matrix):
        layout = HybridLayout.from_matrix(matrix, 0.5)
        with pytest.raises(BitsetError, match="k >= 1"):
            hybrid_supports(layout, np.zeros((3, 0), dtype=np.int32))

    def test_densify_rows_reconstructs_matrix_rows(self, matrix):
        layout = HybridLayout.from_matrix(matrix, 0.5)
        items = np.arange(matrix.n_items, dtype=np.int32)
        np.testing.assert_array_equal(
            densify_rows(layout, items), matrix.words
        )

    def test_hybrid_tables_rebuild_the_anded_rows(self, matrix):
        layout = HybridLayout.from_matrix(matrix, 0.5)
        pairs = np.array([[0, 1], [1, 2], [4, 5]], dtype=np.int32)
        rows = np.zeros((pairs.shape[0], matrix.n_words), dtype=np.uint32)
        covered = np.zeros(pairs.shape[0], dtype=int)
        for sel, table, ids in hybrid_tables(layout, pairs):
            rows[sel] = and_rows(table, ids)
            covered[sel] += 1
        assert covered.tolist() == [1, 1, 1]
        np.testing.assert_array_equal(
            rows, matrix.words[pairs[:, 0]] & matrix.words[pairs[:, 1]]
        )
        np.testing.assert_array_equal(
            hybrid_supports(layout, pairs), support_many(matrix, pairs)
        )

    def test_count_cost_stats_sums_both_sides(self, matrix):
        layout = HybridLayout.from_matrix(matrix, 0.5)
        supports = matrix.supports()
        items = np.arange(matrix.n_items, dtype=np.int32)
        dense_entries, sparse_tids = count_cost_stats(layout, items)
        assert dense_entries == layout.n_dense
        assert sparse_tids == int(
            supports[np.nonzero(layout.row_map < 0)[0]].sum()
        )
        assert count_cost_stats(layout, items[:0]) == (0, 0)


class TestSharding:
    def test_slice_shard_supports_are_additive(self, matrix):
        layout = HybridLayout.from_matrix(matrix, 0.5)
        plan = ShardPlan.for_table(layout, shards=3)
        n = matrix.n_items
        pairs = np.array(
            [(a, b) for a in range(n) for b in range(a + 1, n)],
            dtype=np.int32,
        )
        total = np.zeros(len(pairs), dtype=np.int64)
        for shard in plan.shards:
            sub = layout.slice_shard(shard)
            assert sub.n_transactions == shard.n_transactions
            total += hybrid_supports(sub, pairs)
        np.testing.assert_array_equal(
            total, support_many(matrix, pairs)
        )

    def test_for_layout_budget_must_cover_riding_bytes(self, matrix):
        from repro.errors import DeviceMemoryError

        layout = HybridLayout.from_matrix(matrix, 0.5)
        with pytest.raises(DeviceMemoryError, match="resident bytes"):
            ShardPlan.for_table(
                layout, memory_budget_bytes=layout.riding_bytes
            )


class TestBuildersMatchPerItemLoops:
    """The vectorized layout constructors against per-item reference
    loops, on multi-word rows (aligned and odd widths) with empty items."""

    @pytest.fixture(params=[True, False], ids=["aligned", "unaligned"])
    def wide(self, request):
        rng = np.random.default_rng(11)
        rows = [
            np.nonzero(rng.random(9) < [0.9, 0.6, 0.3, 0.1, 0.05, 0.02, 0.01, 0, 0])[0]
            for _ in range(333)
        ]
        return BitsetMatrix.from_database(
            TransactionDatabase(rows, n_items=9), aligned=request.param
        )

    def test_from_matrix_tids(self, wide):
        layout = HybridLayout.from_matrix(wide, 0.2)
        assert layout.n_dense and layout.n_sparse
        for item in np.nonzero(layout.row_map < 0)[0]:
            slot = -int(layout.row_map[item]) - 1
            lo, hi = layout.sparse_offsets[slot], layout.sparse_offsets[slot + 1]
            np.testing.assert_array_equal(
                layout.sparse_tids[lo:hi], wide.tidset(int(item))
            )

    def test_slice_shard_tids(self, wide):
        layout = HybridLayout.from_matrix(wide, 0.2)
        for shard in ShardPlan.for_table(layout, shards=4).shards:
            sub = layout.slice_shard(shard)
            for slot in range(layout.n_sparse):
                lo, hi = layout.sparse_offsets[slot], layout.sparse_offsets[slot + 1]
                seg = layout.sparse_tids[lo:hi]
                want = seg[(seg >= shard.tid_start) & (seg < shard.tid_stop)]
                got = sub.sparse_tids[sub.sparse_offsets[slot]:sub.sparse_offsets[slot + 1]]
                np.testing.assert_array_equal(got, want - shard.tid_start)

    def test_densify_rows_any_order(self, wide):
        layout = HybridLayout.from_matrix(wide, 0.2)
        items = np.array([8, 3, 0, 5, 5, 1, 6], dtype=np.int32)
        np.testing.assert_array_equal(densify_rows(layout, items), wide.words[items])
