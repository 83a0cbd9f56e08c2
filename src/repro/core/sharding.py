"""Out-of-core tid-range sharding: mine databases larger than device DRAM.

The paper's design keeps every generation-1 bitset resident in device
memory (Section IV, Fig. 4), which caps the minable database at the
T10's 4 GB. The classic way out — Savasere's Partition and Grahne &
Zhu's secondary-memory miner — is to split the *transaction* axis,
stream the pieces through the device, and merge partial results.
Supports make this exact and trivial to merge: the tid ranges are
disjoint, so a candidate's global support is the **sum** of its
per-shard popcounts, bit-identically equal to the unsharded count.

Two pieces:

* :class:`ShardPlan` — splits ``[0, n_transactions)`` into word-aligned
  shards, either an explicit count (``shards=``) or sized so two shard
  slabs (double buffering) fit a device-memory budget
  (``memory_budget_bytes=``).
* :class:`ShardedEngine` — wraps one inner
  :class:`~repro.core.support.SupportEngine` **per shard** (vectorized,
  simulated, or parallel — whatever ``config.engine`` names), slices
  the :class:`~repro.bitset.bitset.BitsetMatrix` per shard, streams
  each generation's candidate buffer through every shard, and sums the
  partial supports. Per-generation slab re-streaming is priced with
  double-buffered host→device transfers: shard ``i+1`` uploads while
  shard ``i``'s kernel runs, so only the *exposed* (un-hidden) transfer
  time is charged.

Simulated inner engines allocate from a global memory capped at the
budget, so a shard whose working set would overflow the configured
device still raises :class:`~repro.errors.DeviceMemoryError` — the
budget is enforced, not just modeled.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from ..bitset.bitset import WORD_BITS, WORDS_PER_ALIGN, BitsetMatrix, words_for
from ..bitset.hybrid import HybridLayout
from ..errors import ConfigError, DeviceMemoryError
from ..gpusim.device import TESLA_T10, DeviceProperties
from ..obs import span
from .config import GPAprioriConfig
from .itemset import RunMetrics
from .support import SupportEngine, price_batch

__all__ = ["Shard", "ShardPlan", "ShardedEngine", "slice_matrix"]

DOUBLE_BUFFER = 2
"""Shard slabs resident at once: one computing, one uploading."""

STREAM_SCRATCH_BYTES = 1024
"""Budget bytes reserved for per-generation candidate/support buffers.

The budget caps the *whole* device, not just the bitset slabs; the
simulated engine still needs room to stage candidate ids and support
slots (chunked, so a small reserve suffices for correctness). Planning
never hands all of the budget to slabs — at least
``min(STREAM_SCRATCH_BYTES, budget // 4)`` stays free."""


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
        align = WORDS_PER_ALIGN if (aligned and n_words % WORDS_PER_ALIGN == 0) else 1

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
    def min_budget_for_matrix(cls, matrix: BitsetMatrix) -> int:
        """Smallest ``memory_budget_bytes`` :meth:`for_matrix` accepts.

        One minimum-width single-buffered slab plus the full candidate
        scratch reservation. The service's degradation ladder clamps
        its halved budget here so "degrade to sharded" can never ask
        for a plan that is impossible by construction.
        """
        align = (
            WORDS_PER_ALIGN
            if matrix.is_aligned() and matrix.n_words % WORDS_PER_ALIGN == 0
            else 1
        )
        min_width = max(1, min(align, matrix.n_words))
        return matrix.n_items * 4 * min_width + STREAM_SCRATCH_BYTES

    @classmethod
    def for_matrix(
        cls,
        matrix: BitsetMatrix,
        shards: int = 0,
        memory_budget_bytes: int | None = None,
    ) -> "ShardPlan":
        """Plan against an existing matrix's exact word layout."""
        return cls.build(
            matrix.n_transactions,
            matrix.n_items,
            n_words=matrix.n_words,
            aligned=matrix.is_aligned(),
            shards=shards,
            memory_budget_bytes=memory_budget_bytes,
        )

    @classmethod
    def for_layout(
        cls,
        layout: HybridLayout,
        shards: int = 0,
        memory_budget_bytes: int | None = None,
    ) -> "ShardPlan":
        """Plan against a hybrid layout: only the dense block streams.

        Sparse tid-lists (and the row map) ride along whole — they stay
        resident for the entire run, so their bytes come off the budget
        before the dense slab widths are sized. The dense block's word
        columns are then sliced exactly as :meth:`for_matrix` slices a
        matrix, with ``n_items`` equal to the dense row count only.
        """
        budget = memory_budget_bytes
        if budget is not None:
            budget = budget - layout.riding_bytes
            if budget <= 0:
                raise DeviceMemoryError(
                    f"memory budget {memory_budget_bytes} bytes cannot hold "
                    f"the hybrid layout's {layout.riding_bytes} resident "
                    "bytes of tid-lists and row map, let alone a dense "
                    "shard slab"
                )
        return cls.build(
            layout.n_transactions,
            layout.n_dense,
            n_words=layout.n_words,
            aligned=layout.n_words % WORDS_PER_ALIGN == 0,
            shards=shards,
            memory_budget_bytes=budget,
        )


def slice_matrix(matrix: BitsetMatrix, shard: Shard) -> BitsetMatrix:
    """One shard's column slice as a standalone (valid) bitset matrix.

    Mid-range shards contain only whole valid words, and the final
    shard inherits the original tail padding (zeros), so the padding
    invariant holds and per-shard popcounts never over-count.
    """
    words = matrix.words[:, shard.word_start : shard.word_stop]
    return BitsetMatrix(words, shard.n_transactions)


class ShardedEngine(SupportEngine):
    """Run any inner engine shard-by-shard and sum partial supports.

    One inner engine per shard persists across generations, so the
    equivalence-class plan's per-shard prefix caches survive between
    :meth:`count_extend`/:meth:`retain` rounds exactly as the unsharded
    cache would. ``retain`` broadcasts the same surviving indices to
    every shard (candidate order is global), keeping the shard caches
    in lockstep.

    Modeled accounting: inner engines charge their own per-shard
    transfer/kernel costs (which sum to the unsharded totals for the
    kernel, and scale with the shard count for the per-generation
    candidate/support hops — the genuine out-of-core overhead). On top
    of that, every counting round after the first re-streams each
    shard's slab to the device; the double-buffered pipeline hides
    transfer behind compute and only the exposed remainder is charged
    as ``htod_shard_stream``.
    """

    def __init__(
        self,
        config: GPAprioriConfig,
        metrics: RunMetrics,
        device: DeviceProperties = TESLA_T10,
    ) -> None:
        super().__init__(config, metrics, device)
        budget = config.memory_budget_bytes
        if budget is not None:
            budget = min(budget, device.global_mem_bytes)
        self.budget = budget
        # Inner engines must not re-shard, and simulated ones allocate
        # from a global memory capped at the budget so overflowing it
        # fails the same way a too-small real device would.
        self._inner_config = config.with_(shards=0, memory_budget_bytes=None)
        self._inner_device = (
            replace(device, global_mem_bytes=budget) if budget is not None else device
        )
        self.plan: Optional[ShardPlan] = None
        self.engines: List[SupportEngine] = []
        self._shard_layouts: List[HybridLayout] = []
        self._rounds = 0
        # extend bases are raw item ids until the first retain()
        self._gen1_base = True

    # -- lifecycle ---------------------------------------------------------------

    def setup(
        self,
        matrix: Optional[BitsetMatrix],
        hybrid: Optional[HybridLayout] = None,
    ) -> None:
        """Plan the shards and install one sliced matrix/layout per shard.

        Each inner ``setup`` charges its own slab's host→device copy,
        so the summed ``htod_bitsets`` charge equals the unsharded
        full-table upload. Under a hybrid layout only the dense block
        is shard-planned; every shard's slice carries the tid-lists
        that fall inside its tid range, rebased so per-shard supports
        stay additive.
        """
        from .support import _make_base_engine

        self._matrix = matrix
        self._hybrid = hybrid
        if hybrid is not None:
            self.plan = ShardPlan.for_layout(
                hybrid, shards=self.config.shards, memory_budget_bytes=self.budget
            )
        else:
            if matrix is None:
                from ..errors import MiningError

                raise MiningError("engine.setup() needs a matrix or a hybrid layout")
            self.plan = ShardPlan.for_matrix(
                matrix, shards=self.config.shards, memory_budget_bytes=self.budget
            )
        n = self.plan.n_shards
        with span(
            "transfer",
            kind="shard_install",
            shards=n,
            slab_bytes=self.plan.slab_bytes,
            total_bytes=self.plan.total_bytes,
        ):
            for shard in self.plan.shards:
                engine = _make_base_engine(
                    self._inner_config, self.metrics, self._inner_device
                )
                # merge rather than assign: a fleet-owned sharded
                # engine tags its launches with the device id too
                engine.span_attrs = {
                    **self.span_attrs,
                    "shard": shard.index,
                    "shards": n,
                }
                if hybrid is not None:
                    sub_layout = hybrid.slice_shard(shard)
                    with span(
                        "transfer",
                        kind="shard_slab",
                        shard=shard.index,
                        tid_start=shard.tid_start,
                        tid_stop=shard.tid_stop,
                        bytes=sub_layout.device_bytes,
                    ):
                        engine.setup(None, hybrid=sub_layout)
                    self._shard_layouts.append(sub_layout)
                else:
                    sub = slice_matrix(matrix, shard)
                    with span(
                        "transfer",
                        kind="shard_slab",
                        shard=shard.index,
                        tid_start=shard.tid_start,
                        tid_stop=shard.tid_stop,
                        bytes=sub.nbytes,
                    ):
                        engine.setup(sub)
                self.engines.append(engine)
        reg = self.metrics.registry
        reg.set_gauge("shard.count", n)
        reg.set_gauge("shard.slab_bytes", self.plan.slab_bytes)
        self.metrics.add_counter("shard.bytes_installed", self.plan.total_bytes)

    def finalize(self) -> None:
        """Finalize every inner engine (their stats are additive)."""
        for engine in self.engines:
            engine.finalize()

    # -- double-buffered slab streaming ------------------------------------------

    def _charge_stream(
        self,
        kind: str,
        n: int,
        k: int,
        items: np.ndarray,
        base: Optional[np.ndarray] = None,
    ) -> None:
        """Price this round's slab re-streaming, double-buffered.

        The first counting round reuses the slabs :meth:`setup` just
        installed; later rounds must bring every slab back (only
        ``DOUBLE_BUFFER`` of them fit the budget at once). Upload of
        shard ``i+1`` overlaps the kernel on shard ``i``, so the charge
        is the first slab's transfer plus whatever later transfers the
        kernels fail to hide. Each shard's kernel is the
        :func:`~repro.core.support.price_batch` of this batch over the
        shard's slice, which is what its inner engine charges; the
        ``shard_stream`` span records them.
        """
        self._rounds += 1
        if self.plan is None or self.plan.n_shards < 2 or self._rounds == 1:
            return
        shards = self.plan.shards
        n_items = self.plan.n_items
        transfers = [
            self.cost.transfer_time(s.slab_bytes(n_items)).seconds for s in shards
        ]
        if self.plan.double_buffered:
            layouts = self._shard_layouts or [None] * len(shards)
            kernels = [
                price_batch(
                    kind, n, k, s.n_words, self.cost, self.config, lay, items, base
                ).kernel
                for s, lay in zip(shards, layouts)
            ]
            exposed = transfers[0] + sum(
                max(0.0, t - kern) for t, kern in zip(transfers[1:], kernels[:-1])
            )
        else:
            kernels = []
            exposed = sum(transfers)  # one slab resident: nothing overlaps
        hidden = sum(transfers) - exposed
        stream_bytes = self.plan.total_bytes
        with span(
            "transfer",
            kind="shard_stream",
            shards=len(shards),
            round=self._rounds,
            bytes=stream_bytes,
        ) as sp:
            self.metrics.add_modeled("htod_shard_stream", exposed)
            self.metrics.add_counter("shard.stream_bytes", stream_bytes)
            self.metrics.add_counter("shard.stream_rounds", 1)
            self.metrics.registry.observe("shard.stream_hidden_seconds", hidden)
            sp.set(
                modeled_exposed_seconds=exposed,
                modeled_hidden_seconds=hidden,
                modeled_shard_kernel_seconds=kernels,
            )

    # -- counting ----------------------------------------------------------------

    def _require_engines(self) -> List[SupportEngine]:
        if not self.engines:
            from ..errors import MiningError

            raise MiningError("engine.setup(matrix) must be called before counting")
        return self.engines

    def count_complete(self, candidates: np.ndarray) -> np.ndarray:
        engines = self._require_engines()
        candidates = np.asarray(candidates)
        n, k = candidates.shape
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        self._charge_stream("complete", n, k, candidates)
        total = np.zeros(n, dtype=np.int64)
        for engine in engines:
            total += engine.count_complete(candidates)
        return total

    def count_extend(self, pairs: np.ndarray) -> np.ndarray:
        engines = self._require_engines()
        pairs = np.asarray(pairs)
        n = pairs.shape[0]
        items, base = pairs, None
        if n:
            items, base = pairs[:, 1], pairs[:, 0] if self._gen1_base else None
        self._charge_stream("extend", n, 2, items, base)
        total = np.zeros(n, dtype=np.int64)
        for engine in engines:
            total += engine.count_extend(pairs)
        return total

    def retain(self, indices: np.ndarray) -> None:
        for engine in self._require_engines():
            engine.retain(indices)
        self._gen1_base = False
