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
word ``t // 32`` at bit ``t % 32``. This matches ``np.packbits`` with
``bitorder="little"`` viewed as ``uint32`` on a little-endian host, and
is asserted in the test suite rather than assumed.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..errors import BitsetError

__all__ = ["BitsetMatrix", "WORD_BITS", "ALIGN_BYTES", "WORDS_PER_ALIGN"]

WORD_BITS = 32
"""Bits per storage word (the kernel's per-thread unit)."""

ALIGN_BYTES = 64
"""Row alignment in bytes (paper: 64-byte boundary for coalescing)."""

WORDS_PER_ALIGN = ALIGN_BYTES // 4
"""Row length is padded to a multiple of this many uint32 words."""


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
        mask = _tail_mask(words.shape[1], n_transactions)
        if mask is not None and words.size:
            if np.any(words & ~mask):
                raise BitsetError("padding bits beyond n_transactions must be zero")
        self._words = words
        self._words.setflags(write=False)
        self._n_transactions = int(n_transactions)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_database(cls, db, aligned: bool = True) -> "BitsetMatrix":
        """Transpose a horizontal database into the static bitset layout.

        This is GPApriori's one-time preprocessing step; the result is
        what the host copies into GPU global memory before mining.
        """
        n_items = db.n_items
        n_tx = db.n_transactions
        n_words = words_for(n_tx, aligned=aligned)
        dense = np.zeros((n_items, n_words * WORD_BITS), dtype=np.uint8)
        # Scatter via the CSR arrays: transaction t sets bit t of each item row.
        offsets = db.offsets
        items = db.items_flat
        tx_ids = np.repeat(np.arange(n_tx, dtype=np.int64), np.diff(offsets))
        dense[items, tx_ids] = 1
        packed = np.packbits(dense, axis=1, bitorder="little")
        words = packed.view(np.uint32).reshape(n_items, n_words)
        return cls(words.copy(), n_tx)

    @classmethod
    def from_sets(
        cls, tidsets: Sequence[Iterable[int]], n_transactions: int, aligned: bool = True
    ) -> "BitsetMatrix":
        """Build from explicit per-item transaction-id collections."""
        n_words = words_for(n_transactions, aligned=aligned)
        words = np.zeros((len(tidsets), n_words), dtype=np.uint32)
        for row, tids in enumerate(tidsets):
            tid_arr = np.asarray(list(tids), dtype=np.int64)
            if tid_arr.size == 0:
                continue
            if tid_arr.min() < 0 or tid_arr.max() >= n_transactions:
                raise BitsetError(
                    f"row {row}: transaction id out of range [0, {n_transactions})"
                )
            np.bitwise_or.at(
                words[row],
                tid_arr // WORD_BITS,
                np.uint32(1) << (tid_arr % WORD_BITS).astype(np.uint32),
            )
        return cls(words, n_transactions)

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

    def is_aligned(self) -> bool:
        """Whether rows respect the paper's 64-byte alignment."""
        return self.n_words % WORDS_PER_ALIGN == 0

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


def _tail_mask(n_words: int, n_transactions: int) -> np.ndarray | None:
    """Per-word mask of *valid* bits; None when every bit is valid."""
    total_bits = n_words * WORD_BITS
    if n_transactions >= total_bits:
        return None
    mask = np.full(n_words, 0xFFFFFFFF, dtype=np.uint32)
    full_words, rem = divmod(n_transactions, WORD_BITS)
    if full_words < n_words:
        mask[full_words] = np.uint32((1 << rem) - 1) if rem else np.uint32(0)
        mask[full_words + 1 :] = 0
    return mask
