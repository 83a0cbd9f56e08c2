"""Tid-range shard plans: split a table larger than device DRAM.

The paper's design keeps every generation-1 bitset resident in device
memory (Section IV, Fig. 4), which caps the minable database at the
T10's 4 GB. The classic way out — Savasere's Partition and Grahne &
Zhu's secondary-memory miner — is to split the *transaction* axis,
stream the pieces through the device, and merge partial results.

* :class:`ShardPlan` — splits ``[0, n_transactions)`` into word-aligned
  shards, either an explicit count (``shards=``) or sized so two shard
  slabs (double buffering) fit a device-memory budget
  (``memory_budget_bytes=``). :meth:`ShardPlan.for_table` plans one
  generation-1 table, a bitset matrix or a hybrid layout, and each
  table cuts its own slices (``slice_shard``).

The engine that streams the shards and sums their supports is
:class:`~repro.core.partitioned.ShardedEngine`; the service's dataset
registry plans shards here without loading any engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..bitset.bitset import WORD_BITS, WORDS_PER_ALIGN, words_for
from ..bitset.hybrid import Table
from ..errors import ConfigError, DeviceMemoryError

__all__ = ["Shard", "ShardPlan"]

DOUBLE_BUFFER = 2
"""Shard slabs resident at once: one computing, one uploading."""

STREAM_SCRATCH_BYTES = 1024
"""Budget bytes reserved for per-generation candidate/support buffers.

The budget caps the *whole* device, not just the bitset slabs; the
simulated engine still needs room to stage candidate ids and support
slots (chunked, so a small reserve suffices for correctness). Planning
never hands all of the budget to slabs — at least
``min(STREAM_SCRATCH_BYTES, budget // 4)`` stays free."""


def _align_words(n_words: int, aligned: bool = True) -> int:
    """The shard-width unit: the paper's 64-byte alignment unit when
    the rows keep it, else one word."""
    return WORDS_PER_ALIGN if aligned and n_words % WORDS_PER_ALIGN == 0 else 1


@dataclass(frozen=True)
class Shard:
    """One contiguous tid range and the word columns that store it."""

    index: int
    tid_start: int
    tid_stop: int
    word_start: int
    word_stop: int

    @property
    def n_transactions(self) -> int:
        return self.tid_stop - self.tid_start

    @property
    def n_words(self) -> int:
        return self.word_stop - self.word_start

    def slab_bytes(self, n_items: int) -> int:
        """Device bytes of this shard's bitset slab."""
        return n_items * self.n_words * 4

    def __repr__(self) -> str:
        return (
            f"Shard({self.index}, tids=[{self.tid_start}, {self.tid_stop}), "
            f"words=[{self.word_start}, {self.word_stop}))"
        )


@dataclass(frozen=True)
class ShardPlan:
    """A word-aligned partition of the transaction-id axis.

    Boundaries always fall on storage-word edges (and on the paper's
    64-byte alignment unit when the matrix is aligned), so every
    shard's slab is a clean column slice of the bitset matrix and
    sliced rows keep their coalescing-friendly layout.
    """

    n_transactions: int
    n_items: int
    n_words: int
    shards: Tuple[Shard, ...]
    double_buffered: bool = True
    """Whether the budget holds two slabs at once. When it only holds
    one, streaming degrades to single-buffered: transfers cannot hide
    behind compute and are charged in full."""

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def slab_bytes(self) -> int:
        """Largest single shard slab (what must fit the device)."""
        return max(s.slab_bytes(self.n_items) for s in self.shards)

    @property
    def total_bytes(self) -> int:
        """All shard slabs together (the full matrix footprint)."""
        return sum(s.slab_bytes(self.n_items) for s in self.shards)

    def as_dict(self) -> dict:
        """JSON-ready summary (dataset-registry / HTTP ``/datasets`` view)."""
        return {
            "n_shards": self.n_shards,
            "n_transactions": self.n_transactions,
            "n_words": self.n_words,
            "slab_bytes": self.slab_bytes,
            "total_bytes": self.total_bytes,
            "double_buffered": self.double_buffered,
        }

    @classmethod
    def build(
        cls,
        n_transactions: int,
        n_items: int,
        n_words: int | None = None,
        aligned: bool = True,
        shards: int = 0,
        memory_budget_bytes: int | None = None,
    ) -> "ShardPlan":
        """Plan shards for a matrix of ``n_words`` uint32 columns.

        Parameters
        ----------
        shards:
            Explicit shard count (``0`` = derive from the budget, or a
            single shard when no budget is given). Alignment may round
            the effective count down — 3 shards over 32 aligned words
            yields widths of 16/16, i.e. 2 shards.
        memory_budget_bytes:
            Device budget for bitset slabs. The shard width is the
            largest aligned multiple with ``DOUBLE_BUFFER`` slabs
            inside the budget, leaving the rest of device memory for
            candidate/support buffers. Combines with ``shards`` by
            taking the narrower width. A budget too tight for two
            minimum-width slabs degrades to single-buffered streaming
            before giving up.

        Raises
        ------
        DeviceMemoryError
            When not even a single minimum-width (one alignment unit)
            slab fits the budget; the message names the bytes needed.
        ConfigError
            For negative sizes or shard counts.
        """
        if n_transactions < 0:
            raise ConfigError("n_transactions must be >= 0")
        if n_items < 0:
            raise ConfigError("n_items must be >= 0")
        if shards < 0:
            raise ConfigError(f"shards must be >= 0, got {shards}")
        if n_words is None:
            n_words = words_for(n_transactions, aligned=aligned)
        align = _align_words(n_words, aligned)

        width = n_words
        double_buffered = True
        if shards:
            blocks = -(-n_words // align)
            width = -(-blocks // shards) * align
        if memory_budget_bytes is not None and n_items > 0:
            scratch = min(STREAM_SCRATCH_BYTES, memory_budget_bytes // 4)
            slab_budget = memory_budget_bytes - scratch
            word_col_bytes = n_items * 4
            min_width = min(align, n_words)
            fit = (slab_budget // DOUBLE_BUFFER) // word_col_bytes
            fit = (fit // align) * align
            if fit < min_width:
                # two slabs don't fit; try one (no transfer/compute overlap)
                double_buffered = False
                fit = (slab_budget // word_col_bytes // align) * align
                if fit < min_width:
                    raise DeviceMemoryError(
                        f"memory budget {memory_budget_bytes} bytes cannot hold "
                        f"even one {min_width}-word shard slab for {n_items} "
                        f"items plus {scratch} bytes of candidate scratch; need "
                        f"at least {word_col_bytes * min_width + scratch} bytes"
                    )
            width = min(width, fit)
        width = max(1, min(width, n_words))

        out: List[Shard] = []
        for word_start in range(0, n_words, width):
            word_stop = min(word_start + width, n_words)
            tid_start = min(word_start * WORD_BITS, n_transactions)
            tid_stop = min(word_stop * WORD_BITS, n_transactions)
            if out and tid_stop == tid_start:
                break  # trailing alignment padding: nothing left to count
            out.append(
                Shard(len(out), tid_start, tid_stop, word_start, word_stop)
            )
        return cls(
            n_transactions=n_transactions,
            n_items=n_items,
            n_words=n_words,
            shards=tuple(out),
            double_buffered=double_buffered,
        )

    @classmethod
    def min_budget(cls, table: Table) -> int:
        """Smallest ``memory_budget_bytes`` :meth:`for_table` plans ``table`` under.

        The table's riding bytes, one minimum-width single-buffered
        slab of its ``n_dense`` rows, and the full candidate scratch
        reservation. The service's degradation ladder clamps its halved
        budget here, so "degrade to sharded" never asks for a plan that
        is impossible by construction.

        >>> from repro.bitset.hybrid import HybridLayout
        >>> from repro.datasets import TransactionDatabase
        >>> db = TransactionDatabase([[0, 1], [0, 2], [0], [0, 1, 3]] * 300)
        >>> layout = HybridLayout.from_database(db, 0.5)  # 2 of 4 rows dense
        >>> layout.riding_bytes, ShardPlan.min_budget(layout)  # + 2 x 16 words x 4 + 1024
        (2440, 3592)
        >>> ShardPlan.for_table(layout, memory_budget_bytes=3592).n_shards
        1
        >>> ShardPlan.for_table(layout, memory_budget_bytes=layout.riding_bytes)
        Traceback (most recent call last):
            ...
        repro.errors.DeviceMemoryError: memory budget 2440 bytes cannot hold the hybrid layout's 2440 resident bytes of tid-lists and row map, let alone a dense shard slab
        """
        min_width = min(_align_words(table.n_words), table.n_words)
        return table.riding_bytes + table.n_dense * 4 * min_width + STREAM_SCRATCH_BYTES

    @classmethod
    def for_table(
        cls,
        table: Table,
        shards: int = 0,
        memory_budget_bytes: int | None = None,
    ) -> "ShardPlan":
        """Plan against a table's exact word layout: its dense rows stream.

        A bitset matrix streams every row. A hybrid layout streams its
        dense block; its tid-lists and row map ride along whole and stay
        resident for the entire run, so their bytes come off the budget
        before the dense slab widths are sized.
        """
        budget = memory_budget_bytes
        if budget is not None and table.riding_bytes:
            budget = budget - table.riding_bytes
            if budget <= 0:
                raise DeviceMemoryError(
                    f"memory budget {memory_budget_bytes} bytes cannot hold "
                    f"the hybrid layout's {table.riding_bytes} resident "
                    "bytes of tid-lists and row map, let alone a dense "
                    "shard slab"
                )
        return cls.build(
            table.n_transactions,
            table.n_dense,
            n_words=table.n_words,
            shards=shards,
            memory_budget_bytes=budget,
        )
