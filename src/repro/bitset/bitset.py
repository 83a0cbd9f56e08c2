"""The static bitset matrix (paper Section IV.1).

Each item ``i`` owns one row of bits; bit ``t`` of row ``i`` is set iff
transaction ``t`` contains item ``i``. Rows are stored as ``uint32``
words — the word width the paper's kernel uses ("the intersection result
of each thread is stored in a 32-bit integer") — and padded so each
row's byte length is a multiple of 64, the alignment the paper imposes:

    "the size of vertical lists are aligned on the 64 byte boundary to
     ensure coalesced memory access."

Padding bits are always zero; every operation preserves that invariant
so popcounts never over-count.

Bit order within a word is little-endian: transaction ``t`` lives in
word ``t // 32`` at bit ``t % 32``. Viewed as bytes on a little-endian
host this is ``np.unpackbits``' ``bitorder="little"``, which the test
suite asserts rather than assumes.

Every table is built by one helper, :func:`set_bits`: it sums the
powers of two that each word holds in one ``np.bincount``, with no
per-bit byte matrix and no ``np.bitwise_or.at``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..errors import BitsetError

__all__ = [
    "BitsetMatrix",
    "WORD_BITS",
    "ALIGN_BYTES",
    "WORDS_PER_ALIGN",
    "set_bits",
    "tid_rows",
]

WORD_BITS = 32
"""Bits per storage word (the kernel's per-thread unit)."""

ALIGN_BYTES = 64
"""Row alignment in bytes (paper: 64-byte boundary for coalescing)."""

WORDS_PER_ALIGN = ALIGN_BYTES // 4
"""Row length is padded to a multiple of this many uint32 words."""

TRANSPOSE_CHUNK = 1024
"""Transactions per pass of :meth:`BitsetMatrix.from_database`, a
multiple of :data:`WORD_BITS`. A pass holds about 17 bytes per entry
(key, weight, bit); at 1,024 transactions that stays below the 2 bytes
per entry a byte-per-bit matrix of the dense chess analog would take,
and 1,024 to 4,096 time the same."""


def words_for(n_transactions: int, aligned: bool = True) -> int:
    """Number of uint32 words needed for ``n_transactions`` bits.

    Never returns zero: even an empty database allocates one word per
    row (degenerate but well-formed, like a zero-length cudaMalloc
    rounding up), so downstream kernel shapes stay valid.
    """
    words = (n_transactions + WORD_BITS - 1) // WORD_BITS
    if aligned:
        words = ((words + WORDS_PER_ALIGN - 1) // WORDS_PER_ALIGN) * WORDS_PER_ALIGN
    return max(words, WORDS_PER_ALIGN if aligned else 1)


class BitsetMatrix:
    """Static bitset table: one aligned bit-vector row per item.

    Parameters
    ----------
    words:
        ``(n_items, n_words)`` ``uint32`` array. Ownership is taken; the
        array is made read-only.
    n_transactions:
        Number of valid bit positions per row. Must satisfy
        ``n_words * 32 >= n_transactions`` and all padding bits must be
        zero (validated).

    Use :meth:`from_database` or
    :func:`~repro.bitset.vertical.build_bitset_matrix` to construct one
    from transactions.
    """

    __slots__ = ("_words", "_n_transactions")

    def __init__(self, words: np.ndarray, n_transactions: int) -> None:
        words = np.ascontiguousarray(words, dtype=np.uint32)
        if words.ndim != 2:
            raise BitsetError(f"words must be 2-D, got shape {words.shape}")
        if n_transactions < 0:
            raise BitsetError("n_transactions must be >= 0")
        if words.shape[1] * WORD_BITS < n_transactions:
            raise BitsetError(
                f"{words.shape[1]} words hold {words.shape[1] * WORD_BITS} bits "
                f"< n_transactions={n_transactions}"
            )
        # only the word columns from n_transactions // 32 on hold padding
        full, rem = divmod(n_transactions, WORD_BITS)
        tail = words[:, full:]
        if tail.size and (np.any(tail[:, 0] >> rem) or np.any(tail[:, 1:])):
            raise BitsetError("padding bits beyond n_transactions must be zero")
        self._words = words
        self._words.setflags(write=False)
        self._n_transactions = int(n_transactions)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_database(cls, db, aligned: bool = True) -> "BitsetMatrix":
        """Transpose a horizontal database into the static bitset layout.

        This is GPApriori's one-time preprocessing step; the result is
        what the host copies into GPU global memory before mining. It
        reads the CSR arrays :data:`TRANSPOSE_CHUNK` transactions at a
        time and sets each chunk's bits with :func:`set_bits` into a
        ``(n_words, n_items)`` table, word column by word column, which
        is transposed once at the end. Exact because a
        ``TransactionDatabase`` holds no repeated item in a transaction.
        """
        n_items, n_tx = db.n_items, db.n_transactions
        offsets, items = db.offsets, db.items_flat
        cols = np.zeros((words_for(n_tx, aligned=aligned), n_items), dtype=np.uint32)
        for start in range(0, n_tx, TRANSPOSE_CHUNK):
            stop = min(start + TRANSPOSE_CHUNK, n_tx)
            lengths = np.diff(offsets[start : stop + 1])
            tx = np.arange(stop - start)
            words = np.repeat((tx >> 5) * n_items, lengths)
            words += items[offsets[start] : offsets[stop]]
            first = start // WORD_BITS
            set_bits(
                cols[first : first + words_for(stop - start, aligned=False)],
                words,
                np.repeat((tx & 31).astype(np.int8), lengths),
            )
        return cls(cols.T, n_tx)

    @classmethod
    def from_sets(
        cls, tidsets: Sequence[Iterable[int]], n_transactions: int, aligned: bool = True
    ) -> "BitsetMatrix":
        """Build from explicit per-item transaction-id collections."""
        rows = [np.unique(np.asarray(list(tids), dtype=np.int64)) for tids in tidsets]
        for row, tids in enumerate(rows):
            if tids.size and (tids[0] < 0 or tids[-1] >= n_transactions):
                raise BitsetError(
                    f"row {row}: transaction id out of range [0, {n_transactions})"
                )
        return cls(
            tid_rows(rows, words_for(n_transactions, aligned=aligned)), n_transactions
        )

    # -- accessors -------------------------------------------------------------

    @property
    def n_items(self) -> int:
        return self._words.shape[0]

    @property
    def n_words(self) -> int:
        """Words per row (always a multiple of 16 when aligned)."""
        return self._words.shape[1]

    @property
    def n_transactions(self) -> int:
        return self._n_transactions

    @property
    def words(self) -> np.ndarray:
        """The read-only ``(n_items, n_words)`` uint32 word array."""
        return self._words

    @property
    def nbytes(self) -> int:
        """Total storage in bytes (what must fit in GPU global memory)."""
        return self._words.nbytes

    def row(self, item: int) -> np.ndarray:
        """Read-only view of one item's bit-vector row."""
        if not 0 <= item < self.n_items:
            raise BitsetError(f"item {item} out of range [0, {self.n_items})")
        return self._words[item]

    @property
    def n_dense(self) -> int:
        """Rows stored as bitsets: every row (cf. the hybrid layout)."""
        return self.n_items

    riding_bytes = 0
    """Bytes that ride along whole when the table is sharded: none."""

    def is_aligned(self) -> bool:
        """Whether rows respect the paper's 64-byte alignment."""
        return self.n_words % WORDS_PER_ALIGN == 0

    def count_groups(self, candidates: np.ndarray) -> list:
        """The one ``(selector, table, rows)`` group that counts
        ``(n, k)`` candidates: the whole batch over this table
        (cf. :func:`~repro.bitset.hybrid.hybrid_tables`)."""
        return [(slice(None), self._words, candidates)]

    def slice_shard(self, shard) -> "BitsetMatrix":
        """One tid-range shard's column slice as a standalone matrix.

        Mid-range shards contain only whole valid words, and the final
        shard inherits the original tail padding (zeros), so the padding
        invariant holds and per-shard popcounts never over-count.
        """
        words = self._words[:, shard.word_start : shard.word_stop]
        return BitsetMatrix(words, shard.n_transactions)

    def __repr__(self) -> str:
        return (
            f"BitsetMatrix(n_items={self.n_items}, n_transactions="
            f"{self._n_transactions}, n_words={self.n_words}, "
            f"nbytes={self.nbytes})"
        )

    # -- semantics --------------------------------------------------------------

    def tidset(self, item: int) -> np.ndarray:
        """Decode one row back to a sorted array of transaction ids."""
        row = self.row(item)
        bits = np.unpackbits(row.view(np.uint8), bitorder="little")
        return np.nonzero(bits[: self._n_transactions])[0].astype(np.int64)

    def supports(self) -> np.ndarray:
        """Per-item supports: popcount of every row, vectorized."""
        from .ops import row_supports

        return row_supports(self._words)

    def test_bit(self, item: int, transaction: int) -> bool:
        """Whether ``transaction`` contains ``item``."""
        if not 0 <= transaction < self._n_transactions:
            raise BitsetError(
                f"transaction {transaction} out of range [0, {self._n_transactions})"
            )
        word = self.row(item)[transaction // WORD_BITS]
        return bool((int(word) >> (transaction % WORD_BITS)) & 1)

    def select_rows(self, items: Sequence[int]) -> np.ndarray:
        """Gather rows for ``items`` as a ``(k, n_words)`` array (copies)."""
        idx = np.asarray(list(items), dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_items):
            raise BitsetError("item id out of range in select_rows")
        return self._words[idx]


def set_bits(out: np.ndarray, words: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Overwrite the ``uint32`` array ``out`` with the bits it should hold.

    Word ``words[i]`` of ``out`` (in flat, C order) gets bit
    ``bits[i]``; every other bit of ``out`` is cleared. One
    ``np.bincount`` sums ``2**bits`` per word, which equals their OR
    only while no ``(word, bit)`` pair repeats: each caller passes
    distinct pairs. The float64 sum of distinct powers of two below
    2**32 is exact. ``bits`` should be a narrow integer type
    (``np.ldexp`` is slow on ``int64`` exponents). Returns ``out``.
    """
    sums = np.bincount(words, weights=np.ldexp(1.0, bits), minlength=out.size)
    np.copyto(out, sums.reshape(out.shape), casting="unsafe")
    return out


def tid_rows(tidsets: Sequence[np.ndarray], n_words: int) -> np.ndarray:
    """The ``(len(tidsets), n_words)`` table whose row ``r`` has the bits
    of ``tidsets[r]`` set; each array must hold distinct ids, all below
    ``n_words * 32``."""
    lengths = [tids.size for tids in tidsets]
    tids = np.concatenate(tidsets) if tidsets else np.empty(0, dtype=np.int64)
    words = np.repeat(np.arange(len(tidsets)) * n_words, lengths) + tids // WORD_BITS
    out = np.empty((len(tidsets), n_words), dtype=np.uint32)
    return set_bits(out, words, tids % WORD_BITS)

