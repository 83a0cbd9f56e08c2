"""Property tests: the host counting core against plain Python sets.

Every other hybrid suite compares :func:`hybrid_supports` with
``support_many``, and both now run :func:`support_words`, so a bug in
the shared core would pass them all. Here the expected support of a
candidate is the size of the intersection of its items' transaction
sets, computed with Python ``set`` objects. The oracle and the bit
encoder below import nothing from :mod:`repro.bitset`; only the code
under test does (the two counting functions and the
:class:`HybridLayout` container, filled through ``from_parts``).

The draws cover k = 1..4, sparse members at every position, all-dense
and all-sparse layouts, items no transaction contains, candidates in
any row and member order, odd word widths (the unaligned layout) and
shard slices, which reach the ``uint32`` fallback of the core.
Lexicographic batches reach its pair-slice and shared-prefix paths, and
all-ones rows either side of 65,535 bits reach both widths of its row
sum.
"""

import contextlib
from functools import lru_cache
from itertools import combinations
from typing import List, Sequence, Set
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitset.hybrid import HybridLayout, hybrid_supports
from repro.bitset.ops import row_supports, support_words
from repro.core.config import GPAprioriConfig
from repro.core.itemset import RunMetrics
from repro.core.parallel import ParallelEngine
from repro.core.sharding import Shard

ORACLE = settings(max_examples=100, deadline=None)


# -- oracle (no repro.bitset code) ---------------------------------------------


def item_tids(transactions: Sequence[Set[int]], item: int) -> Set[int]:
    return {t for t, row in enumerate(transactions) if item in row}


def oracle_support(
    transactions: Sequence[Set[int]], candidate: Sequence[int], lo: int = 0, hi=None
) -> int:
    """Transactions in ``[lo, hi)`` that contain every item of ``candidate``."""
    hi = len(transactions) if hi is None else hi
    common = set(range(lo, hi))
    for item in candidate:
        common &= item_tids(transactions, item)
    return len(common)


def oracle_supports(transactions: Sequence[Set[int]], candidates) -> List[int]:
    """:func:`oracle_support` of each candidate, each item's set built once."""
    tids = {i: item_tids(transactions, i) for i in {i for c in candidates for i in c}}
    everything = set(range(len(transactions)))
    return [len(everything.intersection(*(tids[i] for i in c))) for c in candidates]


def encode_row(tids: Set[int], n_words: int) -> List[int]:
    """Bit ``t`` of the row is set iff ``t`` is in ``tids`` (32-bit words)."""
    bits = np.zeros(32 * n_words, dtype=bool)
    bits[sorted(tids)] = True
    return np.packbits(bits, bitorder="little").view("<u4").tolist()


# -- inputs -------------------------------------------------------------------


@st.composite
def counting_cases(draw):
    """A database, its item table and hybrid split, and candidates."""
    n_items = draw(st.integers(min_value=1, max_value=7))
    n_tx = draw(st.integers(min_value=0, max_value=150))
    # items in ``absent`` occur in no transaction: empty tid-lists on
    # either side of the split
    absent = draw(st.sets(st.integers(0, n_items - 1)))
    transactions = [
        row - absent
        for row in draw(
            st.lists(
                st.sets(st.integers(0, n_items - 1), max_size=n_items),
                min_size=n_tx,
                max_size=n_tx,
            )
        )
    ]
    aligned = draw(st.booleans())
    n_words = -(-n_tx // 32)
    if aligned:
        n_words = -(-n_words // 16) * 16
    dense = draw(
        st.one_of(
            st.just([True] * n_items),
            st.just([False] * n_items),
            st.lists(st.booleans(), min_size=n_items, max_size=n_items),
        )
    )
    k = draw(st.integers(min_value=1, max_value=4))
    candidates = draw(
        st.lists(
            st.lists(st.integers(0, n_items - 1), min_size=k, max_size=k),
            max_size=25,
        )
    )
    return transactions, n_items, n_words, dense, k, candidates


@st.composite
def lexicographic_cases(draw):
    """Every k-combination of a drawn item subset, in lexicographic order.

    A contiguous subset gives long runs of consecutive last items,
    skipped items and dropped candidates cut them, and for k >= 3
    neighbouring candidates share their (k-1)-item parent.
    """
    k = draw(st.integers(min_value=2, max_value=4))
    n_items = draw(st.integers(min_value=k, max_value=20))
    n_tx = draw(st.integers(min_value=0, max_value=150))
    transactions = draw(
        st.lists(
            st.sets(st.integers(0, n_items - 1), max_size=n_items),
            min_size=n_tx,
            max_size=n_tx,
        )
    )
    chosen = sorted(draw(st.sets(st.integers(0, n_items - 1), min_size=k)))
    candidates = [list(c) for c in combinations(chosen, k)]
    dropped = draw(st.sets(st.integers(0, len(candidates) - 1), max_size=3))
    candidates = [c for i, c in enumerate(candidates) if i not in dropped]
    n_words = -(-n_tx // 32)
    if draw(st.booleans()):
        n_words = -(-n_words // 16) * 16
    dense = draw(st.lists(st.booleans(), min_size=n_items, max_size=n_items))
    return transactions, n_items, n_words, dense, k, candidates


def item_table(transactions, n_items: int, n_words: int) -> np.ndarray:
    return np.array(
        [encode_row(item_tids(transactions, i), n_words) for i in range(n_items)],
        dtype=np.uint32,
    ).reshape(n_items, n_words)


def hybrid_layout(transactions, n_items, n_words, dense, permute) -> HybridLayout:
    """Dense items get rows and sparse items slots, each in ``permute`` order."""
    order = [i for i in permute if dense[i]] + [i for i in permute if not dense[i]]
    row_map = np.empty(n_items, dtype=np.int32)
    rows, tids, offsets = [], [], [0]
    for item in order:
        if dense[item]:
            row_map[item] = len(rows)
            rows.append(encode_row(item_tids(transactions, item), n_words))
        else:
            row_map[item] = -(len(offsets) - 1) - 1
            tids.extend(sorted(item_tids(transactions, item)))
            offsets.append(len(tids))
    return HybridLayout.from_parts(
        np.array(rows, dtype=np.uint32).reshape(len(rows), n_words),
        row_map,
        np.array(tids, dtype=np.int32),
        np.array(offsets, dtype=np.int64),
        len(transactions),
    )


def as_array(candidates, k: int) -> np.ndarray:
    return np.array(candidates, dtype=np.int64).reshape(len(candidates), k)


def block_budget(budget):
    """Shrink the core's block budget so small inputs span many blocks."""
    if budget is None:
        return contextlib.nullcontext()
    return mock.patch("repro.bitset.ops.COUNT_BLOCK_BYTES", budget)


def slice_runs(min_run):
    """Pin the mean run length from which the core ANDs contiguous
    slices: 1 slices every batch, a huge value gathers every batch."""
    if min_run is None:
        return contextlib.nullcontext()
    return mock.patch("repro.bitset.ops._MIN_SLICE_RUN", min_run)


PATHS = st.sampled_from([None, 1, 10**9])


# -- properties ---------------------------------------------------------------


class TestSupportWordsOracle:
    @ORACLE
    @given(counting_cases(), st.sampled_from([None, 8, 100]))
    def test_whole_table(self, case, budget):
        transactions, n_items, n_words, _, k, candidates = case
        words = item_table(transactions, n_items, n_words)
        with block_budget(budget):
            got = support_words(words, as_array(candidates, k))
        assert got.tolist() == [oracle_support(transactions, c) for c in candidates]

    @ORACLE
    @given(counting_cases(), st.data())
    def test_column_slices(self, case, data):
        """A word-range view is strided, so the core reads it as uint32."""
        transactions, n_items, n_words, _, k, candidates = case
        words = item_table(transactions, n_items, n_words)
        start = data.draw(st.integers(0, n_words))
        stop = data.draw(st.integers(start, n_words))
        got = support_words(words[:, start:stop], as_array(candidates, k))
        lo, hi = (min(32 * w, len(transactions)) for w in (start, stop))
        assert got.tolist() == [
            oracle_support(transactions, c, lo, hi) for c in candidates
        ]


class TestHybridSupportsOracle:
    @ORACLE
    @given(counting_cases(), st.data(), st.sampled_from([None, 8, 100]))
    def test_layout(self, case, data, budget):
        transactions, n_items, n_words, dense, k, candidates = case
        permute = data.draw(st.permutations(range(n_items)))
        layout = hybrid_layout(transactions, n_items, n_words, dense, permute)
        with block_budget(budget):
            got = hybrid_supports(layout, as_array(candidates, k))
        assert got.tolist() == [oracle_support(transactions, c) for c in candidates]

    @ORACLE
    @given(counting_cases(), st.data())
    def test_shard_slices(self, case, data):
        transactions, n_items, n_words, dense, k, candidates = case
        layout = hybrid_layout(transactions, n_items, n_words, dense, range(n_items))
        start = data.draw(st.integers(0, n_words))
        stop = data.draw(st.integers(start, n_words))
        lo, hi = (min(32 * w, len(transactions)) for w in (start, stop))
        sub = layout.slice_shard(Shard(0, lo, hi, start, stop))
        got = hybrid_supports(sub, as_array(candidates, k))
        assert got.tolist() == [
            oracle_support(transactions, c, lo, hi) for c in candidates
        ]

    def test_sparse_member_at_every_position(self):
        """Item 0 is the only sparse item; it sits at each position of
        a k-candidate for k = 1..4, with dense items filling the rest."""
        transactions = [{0, 1, 2, 3}, {1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}] * 7
        dense = [False, True, True, True]
        layout = hybrid_layout(transactions, 4, 2, dense, range(4))
        for k in range(1, 5):
            rest = [1, 2, 3][: k - 1]
            candidates = [rest[:p] + [0] + rest[p:] for p in range(k)]
            got = hybrid_supports(layout, as_array(candidates, k))
            assert got.tolist() == [
                oracle_support(transactions, c) for c in candidates
            ], k


class TestCorePaths:
    """Runs, shared prefixes and block cuts: each batch is counted on the
    slice path, the gather path and the path the core picks itself."""

    @ORACLE
    @given(lexicographic_cases(), PATHS, st.sampled_from([None, 8, 100]))
    def test_lexicographic_batches(self, case, min_run, budget):
        transactions, n_items, n_words, dense, k, candidates = case
        words = item_table(transactions, n_items, n_words)
        layout = hybrid_layout(transactions, n_items, n_words, dense, range(n_items))
        want = oracle_supports(transactions, candidates)
        with slice_runs(min_run), block_budget(budget):
            assert support_words(words, as_array(candidates, k)).tolist() == want
            assert hybrid_supports(layout, as_array(candidates, k)).tolist() == want
        items = [[i] for i in range(n_items)]
        assert row_supports(words).tolist() == oracle_supports(transactions, items)

    @ORACLE
    @given(lexicographic_cases(), PATHS)
    def test_parallel_block_cuts(self, case, min_run):
        """The parallel engine cuts each batch into one block per worker,
        through runs and shared parents."""
        transactions, n_items, n_words, dense, k, candidates = case
        layout = hybrid_layout(transactions, n_items, n_words, dense, range(n_items))
        engine = ParallelEngine(GPAprioriConfig(engine="parallel", workers=3), RunMetrics())
        engine.min_parallel = 1
        engine.setup(layout)
        try:
            with slice_runs(min_run):
                got = engine.count_complete(as_array(candidates, k))
        finally:
            engine.close()
        assert got.tolist() == oracle_supports(transactions, candidates)


@lru_cache(maxsize=None)
def wide_case(n_words: int):
    """``32 * n_words`` transactions: items 0-8 in every one (all-ones
    rows), item 9 in the even ones, item 10 in none; 9 and 10 sparse."""
    full, even = set(range(11)) - {9, 10}, set(range(10)) - {10}
    transactions = [even if t % 2 == 0 else full for t in range(32 * n_words)]
    words = item_table(transactions, 11, n_words)
    layout = hybrid_layout(transactions, 11, n_words, [True] * 9 + [False] * 2, range(11))
    return transactions, words, layout


WIDE_BATCHES = (
    [[i] for i in range(11)],
    [[0, j] for j in range(1, 11)],  # one run of ten
    [[0, 1, j] for j in range(2, 11)],  # one parent, nine partners
    [[1, 3], [1, 5], [2, 9], [4, 10], [6, 7]],
    [[0, 1, 2, 3], [0, 1, 2, 9], [0, 1, 3, 9], [5, 6, 7, 8]],
)


@pytest.mark.parametrize("min_run", [None, 10**9])
@pytest.mark.parametrize(
    "n_words, visible",
    [
        (2046, 2046),  # 1,023 uint64 words: the widest uint16 row sum
        (2048, 2048),  # 1,024 uint64 words: 65,536 bits
        (2050, 2050),  # 1,025 uint64 words
        (2047, 2047),  # odd width: read as 2,047 uint32 words
        (2050, 2048),  # strided view: read as 2,048 uint32 words
    ],
)
def test_all_ones_rows_at_the_narrow_sum_limit(n_words, visible, min_run):
    """All-ones rows count every bit a row holds, up to 65,600; at
    65,536 a row sum kept in ``uint16`` would wrap to 0."""
    transactions, words, layout = wide_case(n_words)
    view = words[:, :visible]
    transactions = transactions[: 32 * visible]
    layout = layout.slice_shard(Shard(0, 0, len(transactions), 0, visible))
    assert row_supports(view).tolist() == oracle_supports(
        transactions, [[i] for i in range(11)]
    )
    with slice_runs(min_run):
        for batch in WIDE_BATCHES:
            want = oracle_supports(transactions, batch)
            rows = as_array(batch, len(batch[0]))
            assert support_words(view, rows).tolist() == want
            assert hybrid_supports(layout, rows).tolist() == want
