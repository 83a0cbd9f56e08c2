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
"""

import contextlib
from typing import List, Sequence, Set
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitset.hybrid import HybridLayout, hybrid_supports
from repro.bitset.ops import support_words
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


def encode_row(tids: Set[int], n_words: int) -> List[int]:
    """Bit ``t`` of the row is set iff ``t`` is in ``tids`` (32-bit words)."""
    bits = sum(1 << t for t in tids)
    return [(bits >> (32 * w)) & 0xFFFFFFFF for w in range(n_words)]


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
