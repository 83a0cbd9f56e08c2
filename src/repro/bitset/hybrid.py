"""Density-adaptive hybrid vertical layout: dense bitsets + sparse tid-lists.

GPApriori's static bitset table (paper Fig. 3) charges one bit per
transaction per item no matter how rare the item is, so on sparse
datasets most of the device memory — and most of the AND/popcount
bandwidth — is spent on words that are almost entirely zero.
HybridMiner (Bashir & Baig) and the GPU set-intersection layouts of
Amossen & Pagh both show the fix: pick the representation *per item*
by density.

:class:`HybridLayout` keeps every item whose support-density clears a
threshold as a 64-byte-aligned bitset row (exactly the rows the static
layout would hold) and demotes the rest to sorted tid-lists. The
layout is a memory and transfer saving, not a second way to count: on
the host it only resolves item ids to tables. :func:`hybrid_tables`
maps all-dense candidates onto the dense block and candidates with a
sparse member onto one table of densified rows for just the items they
reference, at most ``distinct items × n_words × 4`` bytes (about 2.3 MB
on the T40I10D100K analog at scale 0.5), built once per batch. Each
group then counts on the one counting core,
:func:`~repro.bitset.ops.support_words`, wherever the engine runs it:
in process, or on the parallel engine's threads. The simulated engine
keeps the genuine mixed-mode device kernels in :mod:`repro.core.kernels`,
where each thread probes a sparse member's tid-list for the word it ANDs.

The break-even threshold is exact: an aligned row costs
``n_words * 4`` bytes while a tid-list costs ``4 * support`` bytes, so
an item stores smaller as a tid-list iff its support is below
``n_words`` — i.e. its density is below ``n_words / n_transactions``
(roughly 1/32 plus alignment padding). :func:`auto_dense_threshold`
computes that, and ``layout="auto"`` additionally falls back to the
all-dense layout whenever hybridizing would not actually save bytes.
:func:`build_layout` is the one place that decision is made, for a
mine, a registry load and a store build alike.

Everything here is NumPy-level host code that runs in the engine's own
process; the tests that pin the simulated kernels use it too.
"""

from __future__ import annotations

from typing import List, Tuple, Union

import numpy as np

from ..errors import BitsetError
from .bitset import WORD_BITS, BitsetMatrix, set_bits
from .ops import popcount_words, support_words, tile_bounds

__all__ = [
    "HybridLayout",
    "Table",
    "auto_dense_threshold",
    "build_layout",
    "hybrid_supports",
    "hybrid_tables",
    "densify_rows",
    "count_cost_stats",
]

VALID_LAYOUTS = ("dense", "hybrid", "auto")
"""Accepted values for ``GPAprioriConfig.layout`` / ``--layout``."""


def auto_dense_threshold(n_transactions: int, n_words: int) -> float:
    """Break-even density above which a bitset row beats a tid-list.

    An aligned bitset row occupies ``n_words * 4`` bytes; an ``int32``
    tid-list occupies ``4 * support`` bytes. They tie when
    ``support == n_words``, i.e. at density ``n_words/n_transactions``.

    >>> auto_dense_threshold(n_transactions=1024, n_words=32)
    0.03125
    """
    return n_words / max(n_transactions, 1)


class HybridLayout:
    """Per-item hybrid of aligned bitset rows and sorted tid-lists.

    Parameters (see :meth:`from_parts`): ``dense_words`` is the
    ``(n_dense, n_words)`` uint32 block holding the rows of items
    classified dense; ``row_map`` is an int32 array of length
    ``n_items`` mapping item id → dense row index when ``>= 0``, or
    sparse slot ``-(value + 1)`` when negative; ``sparse_tids`` holds
    every sparse item's sorted transaction ids back to back, delimited
    by ``sparse_offsets`` (CSR-style, length ``n_sparse + 1``).

    The dense block keeps the static layout's invariants: rows are the
    same ``n_words`` the all-dense matrix would use, and padding bits
    past ``n_transactions`` are zero, so popcounts never over-count.
    """

    __slots__ = (
        "dense_words",
        "row_map",
        "sparse_tids",
        "sparse_offsets",
        "dense_threshold",
        "_n_transactions",
    )

    def __init__(
        self,
        dense_words: np.ndarray,
        row_map: np.ndarray,
        sparse_tids: np.ndarray,
        sparse_offsets: np.ndarray,
        n_transactions: int,
        dense_threshold: float,
    ) -> None:
        dense_words = np.ascontiguousarray(dense_words, dtype=np.uint32)
        row_map = np.ascontiguousarray(row_map, dtype=np.int32)
        sparse_tids = np.ascontiguousarray(sparse_tids, dtype=np.int32)
        sparse_offsets = np.ascontiguousarray(sparse_offsets, dtype=np.int64)
        if dense_words.ndim != 2:
            raise BitsetError(
                f"dense_words must be 2-D, got shape {dense_words.shape}"
            )
        if dense_words.shape[1] * WORD_BITS < n_transactions:
            raise BitsetError(
                f"{dense_words.shape[1]} words hold "
                f"{dense_words.shape[1] * WORD_BITS} bits < "
                f"n_transactions={n_transactions}"
            )
        n_sparse = sparse_offsets.size - 1
        if n_sparse < 0:
            raise BitsetError("sparse_offsets must have at least one entry")
        if sparse_offsets[0] != 0 or sparse_offsets[-1] != sparse_tids.size:
            raise BitsetError("sparse_offsets must span sparse_tids exactly")
        if np.any(np.diff(sparse_offsets) < 0):
            raise BitsetError("sparse_offsets must be non-decreasing")
        dense_rows = row_map[row_map >= 0]
        slots = -(row_map[row_map < 0]) - 1
        if dense_rows.size != dense_words.shape[0] or (
            dense_rows.size and not np.array_equal(
                np.sort(dense_rows), np.arange(dense_words.shape[0])
            )
        ):
            raise BitsetError("row_map dense entries must cover every dense row")
        if slots.size != n_sparse or (
            slots.size and not np.array_equal(np.sort(slots), np.arange(n_sparse))
        ):
            raise BitsetError("row_map sparse entries must cover every slot")
        if sparse_tids.size:
            if sparse_tids.min() < 0 or sparse_tids.max() >= max(n_transactions, 1):
                raise BitsetError(
                    f"sparse tid out of range [0, {n_transactions})"
                )
            # each tid-list strictly increases; a step onto the next
            # slot's first tid may fall
            bad = np.diff(sparse_tids) <= 0
            starts = sparse_offsets[1:-1]
            bad[starts[(starts > 0) & (starts < sparse_tids.size)] - 1] = False
            if bad.any():
                slot = np.searchsorted(sparse_offsets, np.argmax(bad), side="right") - 1
                raise BitsetError(f"tid-list of sparse slot {slot} is not strictly increasing")
        self.dense_words = dense_words
        self.dense_words.setflags(write=False)
        self.row_map = row_map
        self.row_map.setflags(write=False)
        self.sparse_tids = sparse_tids
        self.sparse_tids.setflags(write=False)
        self.sparse_offsets = sparse_offsets
        self.sparse_offsets.setflags(write=False)
        self.dense_threshold = float(dense_threshold)
        self._n_transactions = int(n_transactions)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_matrix(
        cls, matrix: BitsetMatrix, dense_threshold: float
    ) -> "HybridLayout":
        """Classify every item of an all-dense matrix by support density.

        Items with ``support >= dense_threshold * n_transactions`` keep
        their bitset row; the rest are decoded to tid-lists. The dense
        block preserves the matrix's word width (and therefore its
        alignment), so hybrid and all-dense runs AND identical rows.
        """
        supports = matrix.supports()
        n_tx = matrix.n_transactions
        dense_mask = supports >= dense_threshold * n_tx
        dense_items = np.nonzero(dense_mask)[0]
        sparse_items = np.nonzero(~dense_mask)[0]
        row_map = np.empty(matrix.n_items, dtype=np.int32)
        row_map[dense_items] = np.arange(dense_items.size, dtype=np.int32)
        row_map[sparse_items] = -np.arange(sparse_items.size, dtype=np.int32) - 1
        dense_words = matrix.words[dense_items]
        offsets = np.zeros(sparse_items.size + 1, dtype=np.int64)
        np.cumsum(supports[sparse_items], out=offsets[1:])
        return cls(
            dense_words,
            row_map,
            _decode_rows(matrix.words, sparse_items),
            offsets,
            n_tx,
            dense_threshold,
        )

    @classmethod
    def from_database(
        cls, db, dense_threshold: float, aligned: bool = True
    ) -> "HybridLayout":
        """Build straight from a horizontal database (via the transpose)."""
        return build_layout(
            BitsetMatrix.from_database(db, aligned=aligned), "hybrid", dense_threshold
        )

    @classmethod
    def from_parts(
        cls,
        dense_words: np.ndarray,
        row_map: np.ndarray,
        sparse_tids: np.ndarray,
        sparse_offsets: np.ndarray,
        n_transactions: int,
        dense_threshold: float = 0.0,
    ) -> "HybridLayout":
        """Rebuild from raw arrays (store blocks, hand-built test layouts)."""
        return cls(
            dense_words,
            row_map,
            sparse_tids,
            sparse_offsets,
            n_transactions,
            dense_threshold,
        )

    # -- geometry --------------------------------------------------------------

    @property
    def n_items(self) -> int:
        return self.row_map.size

    @property
    def n_transactions(self) -> int:
        return self._n_transactions

    @property
    def n_words(self) -> int:
        """Words per dense row (matches the all-dense matrix's width)."""
        return self.dense_words.shape[1]

    @property
    def n_dense(self) -> int:
        return self.dense_words.shape[0]

    @property
    def n_sparse(self) -> int:
        return self.sparse_offsets.size - 1

    @property
    def device_bytes(self) -> int:
        """Bytes the layout occupies on the device (all four arrays)."""
        return (
            self.dense_words.nbytes
            + self.row_map.nbytes
            + self.sparse_tids.nbytes
            + self.sparse_offsets.nbytes
        )

    @property
    def nbytes(self) -> int:
        return self.device_bytes

    @property
    def riding_bytes(self) -> int:
        """Bytes that ride along whole when the dense block is sharded."""
        return self.device_bytes - self.dense_words.nbytes

    @property
    def all_dense_bytes(self) -> int:
        """What the equivalent static all-dense matrix would occupy."""
        return self.n_items * self.n_words * 4

    @property
    def bytes_saved(self) -> int:
        """Device bytes saved vs all-dense (negative when hybrid loses)."""
        return self.all_dense_bytes - self.device_bytes

    def sparse_length(self, slot: int) -> int:
        return int(self.sparse_offsets[slot + 1] - self.sparse_offsets[slot])

    def item_tidset(self, item: int) -> np.ndarray:
        """Sorted transaction ids of one item, whichever side it lives on."""
        entry = int(self.row_map[item])
        if entry >= 0:
            bits = np.unpackbits(
                self.dense_words[entry].view(np.uint8), bitorder="little"
            )
            return np.nonzero(bits[: self._n_transactions])[0].astype(np.int64)
        slot = -entry - 1
        lo, hi = self.sparse_offsets[slot], self.sparse_offsets[slot + 1]
        return self.sparse_tids[lo:hi].astype(np.int64)

    def as_dict(self) -> dict:
        """Summary for ``/v1/datasets`` and the pin profile."""
        return {
            "n_items": self.n_items,
            "dense_items": self.n_dense,
            "sparse_items": self.n_sparse,
            "dense_threshold": self.dense_threshold,
            "device_bytes": self.device_bytes,
            "bytes_saved": self.bytes_saved,
        }

    def __repr__(self) -> str:
        return (
            f"HybridLayout(n_items={self.n_items}, dense={self.n_dense}, "
            f"sparse={self.n_sparse}, n_words={self.n_words}, "
            f"device_bytes={self.device_bytes})"
        )

    # -- counting and sharding -------------------------------------------------

    def count_groups(self, candidates: np.ndarray) -> list:
        """The ``(selector, table, rows)`` groups that count ``(n, k)``
        candidates: :func:`hybrid_tables`."""
        return hybrid_tables(self, candidates)

    def slice_shard(self, shard) -> "HybridLayout":
        """Restrict the layout to one tid-range shard.

        The dense block is sliced column-wise to the shard's word range
        (exactly like :meth:`BitsetMatrix.slice_shard`); each
        tid-list is cut to ``[tid_start, tid_stop)`` and rebased so the
        slice is self-contained. Per-shard supports stay additive.
        """
        dense = np.ascontiguousarray(
            self.dense_words[:, shard.word_start:shard.word_stop]
        )
        slot_of = np.repeat(
            np.arange(self.n_sparse), np.diff(self.sparse_offsets)
        )
        keep = (self.sparse_tids >= shard.tid_start) & (
            self.sparse_tids < shard.tid_stop
        )
        offsets = np.zeros(self.n_sparse + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(slot_of[keep], minlength=self.n_sparse), out=offsets[1:]
        )
        tids = self.sparse_tids[keep] - np.int32(shard.tid_start)
        return HybridLayout(
            dense,
            self.row_map.copy(),
            tids,
            offsets,
            shard.n_transactions,
            self.dense_threshold,
        )


def build_layout(
    matrix: BitsetMatrix, layout: str, dense_threshold: float | None = None
) -> HybridLayout | None:
    """The generation-1 hybrid table ``layout`` asks for, or ``None``.

    ``None`` means "install the all-dense ``matrix``". ``"dense"``
    always gives ``None``; ``"hybrid"`` classifies the matrix at
    ``dense_threshold`` (the storage break-even when ``None``);
    ``"auto"`` classifies it the same way and keeps the result only
    when it saves device bytes.
    """
    if layout == "dense":
        return None
    if dense_threshold is None:
        dense_threshold = auto_dense_threshold(matrix.n_transactions, matrix.n_words)
    built = HybridLayout.from_matrix(matrix, dense_threshold)
    return built if layout == "hybrid" or built.bytes_saved > 0 else None


def _decode_rows(words: np.ndarray, items: np.ndarray) -> np.ndarray:
    """Sorted set-bit positions of each of ``items``' rows, back to back.

    Per tile, the live (nonzero) words of the gathered rows each own a
    run of the output from the exclusive cumsum of their popcounts.
    Every pass peels the lowest set bit of each live word into the next
    slot of its run, so bits leave in ascending order with no sort and
    no unpacked-bit array; at most 32 passes.
    """
    parts = []
    for start, stop in tile_bounds(items.size, max(words.shape[1] * 4, 1)):
        block = words[items[start:stop]].reshape(-1)
        at = np.flatnonzero(block)
        base = (at % words.shape[1] * WORD_BITS).astype(np.int32)
        live = block[at]
        counts = popcount_words(live)
        out = np.empty(int(counts.sum(dtype=np.int64)), dtype=np.int32)
        slot = np.cumsum(counts, dtype=np.int64) - counts
        while live.size:
            low = live & (~live + np.uint32(1))
            out[slot] = base + popcount_words(low - np.uint32(1))
            live ^= low
            keep = live != 0
            live, slot, base = live[keep], slot[keep] + 1, base[keep]
        parts.append(out)
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int32)


Table = Union[BitsetMatrix, HybridLayout]
"""A generation-1 table: every engine installs one or the other, and
both answer ``n_items``, ``n_words``, ``n_transactions``, ``nbytes``
(the install charge), ``n_dense``, ``riding_bytes``, ``count_groups``
and ``slice_shard``."""


# -- host counting: resolve ids to tables, count on the core ------------------


def hybrid_tables(
    layout: HybridLayout, candidates: np.ndarray
) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Resolve ``(n, k)`` item-id candidates to the tables they count over.

    Returns ``(selector, table, rows)`` groups that together cover the
    batch: ``candidates[selector]`` count as
    ``support_words(table, rows)``. Candidates whose members are all
    dense index the dense block itself through ``row_map``. Candidates
    with any sparse member index one table from :func:`densify_rows`
    that holds only the distinct items those candidates reference, so
    it is at most ``distinct items × n_words × 4`` bytes. Empty groups
    are left out. No counting happens here, so a caller decides where
    each group's AND/popcount runs.
    """
    rows = layout.row_map[candidates]
    mixed = (rows < 0).any(axis=1)
    groups = []
    if not mixed.all():
        groups.append((~mixed, layout.dense_words, rows[~mixed]))
    if mixed.any():
        items, ids = np.unique(candidates[mixed], return_inverse=True)
        groups.append(
            (mixed, densify_rows(layout, items), ids.reshape(-1, candidates.shape[1]))
        )
    return groups


def hybrid_supports(layout: HybridLayout, candidates: np.ndarray) -> np.ndarray:
    """Support counts for ``(n, k)`` candidate itemsets on the hybrid layout.

    Counts each :func:`hybrid_tables` group on the one host counting
    core, :func:`~repro.bitset.ops.support_words`. Returns int64
    supports, bit-identical to the all-dense
    :func:`~repro.bitset.ops.support_many`.
    """
    candidates = np.ascontiguousarray(candidates)
    if candidates.ndim != 2:
        raise BitsetError(f"candidates must be 2-D, got shape {candidates.shape}")
    if candidates.shape[1] == 0:
        raise BitsetError("candidates must have k >= 1 items")
    if candidates.size and (
        candidates.min() < 0 or candidates.max() >= layout.n_items
    ):
        raise BitsetError(f"candidate item id out of range [0, {layout.n_items})")
    supports = np.empty(candidates.shape[0], dtype=np.int64)
    for selector, table, rows in hybrid_tables(layout, candidates):
        supports[selector] = support_words(table, rows)
    return supports


def densify_rows(layout: HybridLayout, items: np.ndarray) -> np.ndarray:
    """Materialize bitset rows for ``items`` whichever side they live on.

    Dense items gather their block row; sparse items' tid-lists become
    rows in one :func:`~repro.bitset.bitset.set_bits` (a tid-list holds
    distinct ids, so each row's bits are distinct). Builds the table the
    mixed candidates of :func:`hybrid_tables` count over.
    """
    items = np.ascontiguousarray(items)
    n_words = layout.n_words
    entries = layout.row_map[items]
    dense_sel = entries >= 0
    owners = np.flatnonzero(~dense_sel)
    lo = layout.sparse_offsets[-entries[owners] - 1]
    lengths = layout.sparse_offsets[-entries[owners]] - lo
    # every owner's tids, back to back: lo + position within its run
    tids = layout.sparse_tids[
        np.arange(lengths.sum()) + np.repeat(lo - np.cumsum(lengths) + lengths, lengths)
    ]
    sparse = set_bits(
        np.empty((owners.size, n_words), dtype=np.uint32),
        np.repeat(np.arange(owners.size) * n_words, lengths) + tids // WORD_BITS,
        tids % WORD_BITS,
    )
    if owners.size == items.size:
        return sparse
    out = np.empty((items.size, n_words), dtype=np.uint32)
    out[owners] = sparse
    out[dense_sel] = layout.dense_words[entries[dense_sel]]
    return out


def count_cost_stats(
    layout: HybridLayout,
    items: np.ndarray,
) -> Tuple[int, int]:
    """Deterministic traffic stats for a batch of item references.

    Returns ``(dense_entries, sparse_tids)``: how many dense rows are
    gathered and how many tid-list entries are walked if every item in
    ``items`` (any shape) is resolved once. Pure function of
    ``(layout, items)`` — every engine charges from this, so modeled
    costs agree across vectorized/simulated/parallel execution.
    """
    items = np.ascontiguousarray(items).reshape(-1)
    if items.size == 0:
        return 0, 0
    entries = layout.row_map[items]
    dense_entries = int((entries >= 0).sum())
    slots = -(entries[entries < 0]) - 1
    lengths = layout.sparse_offsets[slots + 1] - layout.sparse_offsets[slots]
    return dense_entries, int(lengths.sum())
