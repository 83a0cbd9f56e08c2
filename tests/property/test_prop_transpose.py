"""Property tests: every bitset table builder against plain Python sets.

Each builder sets bits through one ``np.bincount`` of powers of two,
which equals their OR only while no bit repeats, and the hybrid layout
decodes its tid-lists by peeling set bits. Here the expected table is
read back with Python ints: bit ``b`` of word ``j`` of an item's row
must be set iff transaction ``32 * j + b`` contains the item. Checked:

* ``BitsetMatrix.from_database``, also with the transpose cut into
  small chunks (:data:`~repro.bitset.bitset.TRANSPOSE_CHUNK` patched
  down), so that several chunks and a partial one meet;
* ``BitsetMatrix.from_sets`` fed each tid set shuffled and with
  repeats, and ``tidsets_to_bitset`` at its own and a pinned width;
* ``build_layout``'s dense rows and tid-lists, and ``densify_rows``
  over items in any order, repeated;

on both ``aligned`` settings. The pinned cases hold an empty database,
counts not a multiple of 32, an all-ones word, bit 31, an item no
transaction holds, one only the last transaction holds, and sparse
words holding every count of set bits from 1 to 32.
"""

from typing import List, Sequence, Set
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.bitset.bitset as bitset_mod
from repro.bitset import BitsetMatrix
from repro.bitset.hybrid import build_layout, densify_rows
from repro.bitset.vertical import build_tidset_table, tidsets_to_bitset
from repro.datasets import TransactionDatabase

ORACLE = settings(max_examples=80, deadline=None)
CHUNKS = st.sampled_from([32, 64, 96, 4096])


# -- oracle (Python sets and ints) ---------------------------------------------


def item_sets(transactions: Sequence[Set[int]], n_items: int) -> List[Set[int]]:
    """Transaction ids holding each item."""
    sets = [set() for _ in range(n_items)]
    for t, row in enumerate(transactions):
        for item in row:
            sets[item].add(t)
    return sets


def row_bits(row) -> Set[int]:
    """Positions of the set bits of one row of 32-bit words."""
    return {
        32 * j + b for j, word in enumerate(int(w) for w in row) for b in range(32)
        if word >> b & 1
    }


def expected_words(n_tx: int, aligned: bool) -> int:
    words = -(-n_tx // 32)
    if aligned:
        return max(16, -(-words // 16) * 16)
    return max(words, 1)


def check_table(words: np.ndarray, sets: List[Set[int]], n_words: int) -> None:
    assert words.dtype == np.uint32
    assert words.shape == (len(sets), n_words)
    assert [row_bits(row) for row in words] == sets


# -- the checks ----------------------------------------------------------------


def check_builders(transactions, n_items: int, aligned: bool, chunk: int, rng) -> None:
    db = TransactionDatabase(transactions, n_items=n_items)
    sets = item_sets(transactions, n_items)
    n_tx = len(transactions)
    n_words = expected_words(n_tx, aligned)

    with mock.patch.object(bitset_mod, "TRANSPOSE_CHUNK", chunk):
        matrix = BitsetMatrix.from_database(db, aligned=aligned)
    check_table(matrix.words, sets, n_words)

    messy = []
    for tids in sets:
        tids = sorted(tids) + sorted(tids)[: len(tids) // 2]
        rng.shuffle(tids)
        messy.append(tids)
    check_table(BitsetMatrix.from_sets(messy, n_tx, aligned=aligned).words, sets, n_words)

    table = build_tidset_table(db)
    check_table(tidsets_to_bitset(table, aligned=aligned).words, sets, n_words)
    check_table(tidsets_to_bitset(table, n_words=n_words + 3).words, sets, n_words + 3)

    supports = [len(s) for s in sets]
    thresholds = [None, 0.0, 1.01] + [s / max(n_tx, 1) for s in supports[:3]]
    for threshold in thresholds:
        layout = build_layout(matrix, "hybrid", threshold)
        assert layout.sparse_tids.dtype == np.int32
        for item in range(n_items):
            entry = int(layout.row_map[item])
            if entry >= 0:
                assert row_bits(layout.dense_words[entry]) == sets[item]
            else:
                lo, hi = layout.sparse_offsets[-entry - 1], layout.sparse_offsets[-entry]
                assert layout.sparse_tids[lo:hi].tolist() == sorted(sets[item])
            assert layout.item_tidset(item).tolist() == sorted(sets[item])
        items = rng.integers(0, n_items, size=2 * n_items)
        check_table(densify_rows(layout, items), [sets[i] for i in items], n_words)


@st.composite
def databases(draw):
    n_items = draw(st.integers(min_value=1, max_value=10))
    density = draw(st.sampled_from([0.05, 0.3, 0.7, 1.0]))
    n_tx = draw(st.integers(min_value=0, max_value=300))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rows = np.random.default_rng(seed).random((n_tx, n_items)) < density
    return [set(np.flatnonzero(row).tolist()) for row in rows], n_items


class TestBuildersMatchSets:
    @ORACLE
    @given(databases(), st.booleans(), CHUNKS, st.integers(0, 2**16))
    def test_random_databases(self, case, aligned, chunk, seed):
        transactions, n_items = case
        check_builders(transactions, n_items, aligned, chunk, np.random.default_rng(seed))


def pinned_cases():
    """``(id, transactions, n_items, chunk)`` for the edges named above."""
    varied = [set() for _ in range(32 * 34)]
    for r in range(32):  # item r: a word holding r + 1 set bits
        for b in range(r + 1):
            varied[32 * (r + 1) + b].add(r)
    varied[32 * 33 + 31].add(32)  # bit 31 of the last word, alone
    chunks = [{t % 5, (t * 7) % 5} for t in range(64 * 3 + 40)]
    return [
        ("empty-database", [], 3, 4096),
        ("no-transactions-items", [set(), set()], 2, 4096),
        ("n_tx-45", [{t % 3, 2} for t in range(45)], 4, 4096),
        ("several-chunks-and-a-partial-one", chunks, 6, 64),
        ("all-ones-word", [{0, 1} if t % 2 else {0} for t in range(64)], 2, 32),
        ("bit-31", [{1} if t in (31, 63) else {0} for t in range(64)], 2, 4096),
        ("item-never-occurs", [{0, 2} for _ in range(40)], 5, 4096),
        ("item-only-in-last", [{0} for _ in range(99)] + [{0, 3}], 4, 32),
        ("sparse-words-1-to-32-bits", varied, 33, 96),
    ]


@pytest.mark.parametrize("aligned", [True, False])
@pytest.mark.parametrize(
    "transactions, n_items, chunk",
    [case[1:] for case in pinned_cases()],
    ids=[case[0] for case in pinned_cases()],
)
def test_pinned(transactions, n_items, chunk, aligned):
    check_builders(transactions, n_items, aligned, chunk, np.random.default_rng(0))


def test_all_ones_word_is_exact():
    """32 distinct powers of two sum to 0xFFFFFFFF, not past it."""
    db = TransactionDatabase([[0]] * 32 + [[1]])
    words = BitsetMatrix.from_database(db, aligned=False).words
    assert words.tolist() == [[0xFFFFFFFF, 0], [0, 1]]


def test_sparse_words_decode_every_bit_count():
    """A layout with every item sparse decodes words of 1..32 set bits."""
    transactions, n_items, _ = pinned_cases()[-1][1:]
    matrix = BitsetMatrix.from_database(TransactionDatabase(transactions, n_items=n_items))
    layout = build_layout(matrix, "hybrid", 1.01)
    assert layout.n_dense == 0
    counts = np.diff(layout.sparse_offsets).tolist()
    assert counts == list(range(1, 33)) + [1]
    sets = item_sets(transactions, n_items)
    assert layout.sparse_tids.tolist() == [t for s in sets for t in sorted(s)]
