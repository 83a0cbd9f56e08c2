"""Horizontal transaction database container.

This is the paper's "horizontal representation" (Fig. 2A): each
transaction is a set of item ids. Every miner in the package consumes a
:class:`TransactionDatabase`; the vertical layouts (tidset, bitset) in
:mod:`repro.bitset` are built *from* it, mirroring how GPApriori
transposes the input database once before mining.

Transactions are stored internally in a compact CSR-like form — one flat
``int32`` item array plus an offsets array — so a 340k-transaction
database (accidents-scale) costs two NumPy arrays rather than 340k
Python lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence

import numpy as np

from ..errors import DatasetError

__all__ = ["TransactionDatabase", "DatabaseStats"]


@dataclass(frozen=True)
class DatabaseStats:
    """Summary statistics in the shape of the paper's Table 2."""

    n_items: int
    avg_length: float
    n_transactions: int
    density: float
    """Fraction of the n_items x n_transactions matrix that is set."""

    max_length: int
    min_length: int

    def as_table_row(self, name: str, kind: str = "Synthetic") -> str:
        """Render one row matching Table 2's columns."""
        return (
            f"{name:<14} {self.n_items:>7,} {self.avg_length:>11.1f} "
            f"{self.n_transactions:>9,}  {kind}"
        )


class TransactionDatabase:
    """An immutable horizontal transaction database.

    Parameters
    ----------
    transactions:
        Iterable of item-id iterables. Item ids must be non-negative
        integers. Duplicate items within one transaction are collapsed;
        items are stored sorted within each transaction, which the
        trie-based candidate generation relies on.
    n_items:
        Optional explicit size of the item universe. Must be strictly
        greater than the largest item id present. When omitted the
        universe is ``max(item) + 1`` (or 0 for an empty database).

    Notes
    -----
    Empty transactions are preserved: they contribute to the transaction
    count (and therefore to support *ratios*) but can never contain a
    candidate, exactly as in the FIMI datasets.
    """

    __slots__ = ("_items", "_offsets", "_n_items")

    def __init__(
        self,
        transactions: Iterable[Iterable[int]],
        n_items: int | None = None,
    ) -> None:
        rows: List[np.ndarray] = []
        max_item = -1
        for t in transactions:
            arr = np.unique(np.asarray(list(t), dtype=np.int64))
            if arr.size and arr[0] < 0:
                raise DatasetError(f"item ids must be >= 0, got {int(arr[0])}")
            if arr.size:
                max_item = max(max_item, int(arr[-1]))
            rows.append(arr.astype(np.int32))
        if n_items is None:
            n_items = max_item + 1
        elif n_items <= max_item:
            raise DatasetError(
                f"n_items={n_items} but database contains item id {max_item}"
            )
        elif n_items < 0:
            raise DatasetError(f"n_items must be >= 0, got {n_items}")
        self._n_items = int(n_items)
        lengths = np.fromiter((r.size for r in rows), dtype=np.int64, count=len(rows))
        self._offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=self._offsets[1:])
        self._items = (
            np.concatenate(rows).astype(np.int32)
            if rows and self._offsets[-1] > 0
            else np.empty(0, dtype=np.int32)
        )
        self._items.setflags(write=False)
        self._offsets.setflags(write=False)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_arrays(cls, items: np.ndarray, offsets: np.ndarray, n_items: int) -> "TransactionDatabase":
        """Build directly from CSR arrays (trusted, used by generators).

        ``items`` must already be sorted and deduplicated within each
        transaction; this is checked cheaply (monotonicity per row is
        asserted only in slices touched by validation sampling).
        """
        db = cls.__new__(cls)
        items = np.ascontiguousarray(items, dtype=np.int32)
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        if offsets.ndim != 1 or offsets.size == 0 or offsets[0] != 0:
            raise DatasetError("offsets must be 1-D, non-empty and start at 0")
        if items.ndim != 1 or (offsets[-1] != items.size):
            raise DatasetError("offsets[-1] must equal len(items)")
        if np.any(np.diff(offsets) < 0):
            raise DatasetError("offsets must be non-decreasing")
        if items.size and (items.min() < 0 or items.max() >= n_items):
            raise DatasetError("item ids out of range for n_items")
        db._items = items
        db._offsets = offsets
        db._n_items = int(n_items)
        db._items.setflags(write=False)
        db._offsets.setflags(write=False)
        return db

    # -- core protocol --------------------------------------------------------

    def __len__(self) -> int:
        return self._offsets.size - 1

    def __iter__(self) -> Iterator[np.ndarray]:
        for i in range(len(self)):
            yield self[i]

    def __getitem__(self, i: int) -> np.ndarray:
        n = len(self)
        if not -n <= i < n:
            raise IndexError(f"transaction index {i} out of range for {n}")
        if i < 0:
            i += n
        return self._items[self._offsets[i] : self._offsets[i + 1]]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransactionDatabase):
            return NotImplemented
        return (
            self._n_items == other._n_items
            and np.array_equal(self._offsets, other._offsets)
            and np.array_equal(self._items, other._items)
        )

    def __hash__(self) -> int:  # immutable, so hashable by content digest
        return hash((self._n_items, self._items.tobytes(), self._offsets.tobytes()))

    def __repr__(self) -> str:
        return (
            f"TransactionDatabase(n_transactions={len(self)}, "
            f"n_items={self._n_items}, avg_length={self.stats().avg_length:.2f})"
        )

    # -- accessors -------------------------------------------------------------

    @property
    def n_items(self) -> int:
        """Size of the item universe (one more than the largest valid id)."""
        return self._n_items

    @property
    def n_transactions(self) -> int:
        return len(self)

    @property
    def nbytes(self) -> int:
        """Resident bytes of the CSR storage (items + offsets arrays).

        The mining service's dataset registry accounts LRU eviction in
        these bytes (plus the pinned bitset matrix's).
        """
        return int(self._items.nbytes + self._offsets.nbytes)

    @property
    def items_flat(self) -> np.ndarray:
        """Flat, read-only item array (CSR values)."""
        return self._items

    @property
    def offsets(self) -> np.ndarray:
        """Read-only CSR offsets array of length ``n_transactions + 1``."""
        return self._offsets

    def transaction_lengths(self) -> np.ndarray:
        """Lengths of all transactions as an ``int64`` array."""
        return np.diff(self._offsets)

    def item_supports(self) -> np.ndarray:
        """Absolute support (occurrence count) of every item id.

        This is the generation-1 support-counting scan of Apriori, done
        in one vectorized ``bincount`` over the flat item array.
        """
        return np.bincount(self._items, minlength=self._n_items).astype(np.int64)

    def contains(self, itemset: Sequence[int]) -> np.ndarray:
        """Boolean mask of transactions containing every item in ``itemset``.

        Used as the reference ("ground truth") support oracle in tests;
        production counting goes through the vertical layouts.
        """
        want = np.unique(np.asarray(list(itemset), dtype=np.int64))
        if want.size and (want[0] < 0 or want[-1] >= self._n_items):
            raise DatasetError("itemset contains ids outside the item universe")
        mask = np.empty(len(self), dtype=bool)
        for i in range(len(self)):
            row = self[i]
            mask[i] = np.isin(want, row).all() if want.size else True
        return mask

    def support(self, itemset: Sequence[int]) -> int:
        """Absolute support of ``itemset`` by direct horizontal scan."""
        return int(self.contains(itemset).sum())

    def stats(self) -> DatabaseStats:
        """Compute Table 2-style statistics for this database."""
        n = len(self)
        lengths = self.transaction_lengths()
        total = int(lengths.sum())
        avg = total / n if n else 0.0
        density = total / (n * self._n_items) if n and self._n_items else 0.0
        return DatabaseStats(
            n_items=self._n_items,
            avg_length=avg,
            n_transactions=n,
            density=density,
            max_length=int(lengths.max()) if n else 0,
            min_length=int(lengths.min()) if n else 0,
        )

    # -- transforms -------------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        """Materialize as a boolean ``(n_transactions, n_items)`` matrix.

        The binary-matrix view many ML toolkits expect (transaction x
        item incidence). Memory is O(n x m) — meant for small data or
        interop, not for mining (that is what the bitset layout is for).
        """
        dense = np.zeros((len(self), self._n_items), dtype=bool)
        tx_ids = np.repeat(
            np.arange(len(self), dtype=np.int64), np.diff(self._offsets)
        )
        dense[tx_ids, self._items] = True
        return dense

    @classmethod
    def from_dense(cls, matrix: np.ndarray) -> "TransactionDatabase":
        """Build from a boolean/0-1 ``(n_transactions, n_items)`` matrix."""
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise DatasetError(f"dense matrix must be 2-D, got {matrix.shape}")
        mask = matrix.astype(bool)
        rows = [np.nonzero(mask[i])[0] for i in range(mask.shape[0])]
        return cls(rows, n_items=mask.shape[1])
