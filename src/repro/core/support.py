"""Support-counting engines: vectorized (NumPy) and simulated (gpusim).

:class:`VectorizedEngine` resolves each batch's ids to ``(table, rows)``
groups (the hybrid layout through
:func:`~repro.bitset.hybrid.hybrid_tables`) and counts every group
through one executor hook, ``_count``, whose body is
:func:`~repro.bitset.ops.support_words`. The third engine,
:class:`~repro.core.parallel.ParallelEngine`, is a subclass that only
overrides that hook to run it on a pool of worker processes reading
the tables from shared memory. :meth:`SupportEngine._check_batch`
validates every batch, the same way on every engine, before any work.

All engines expose the same three operations the mining driver needs:

* :meth:`SupportEngine.count_complete` — complete-intersection counting
  of a ``(n, k)`` candidate buffer (paper Fig. 4 / Fig. 5);
* :meth:`SupportEngine.count_extend` / :meth:`SupportEngine.retain` —
  the equivalence-class alternative, extending cached prefix rows;
* modeled-cost accounting into a :class:`~repro.core.itemset.RunMetrics`.

One function, :func:`price_batch`, prices every counting batch on the
modeled Tesla T10: candidate upload, kernel and support download, plus
the dense-row and tid-list traffic. Only it picks the kernel model for
the kind (complete or extend) and layout (dense or hybrid), calls
:func:`~repro.bitset.hybrid.count_cost_stats` and maps
``config.aligned`` to a coalescing factor. The engines record its
output; the shard stream, fleet clock, CPU/GPU balancer and GPU Eclat
call it for their own estimates.

The vectorized engine computes the same arithmetic with whole-array
NumPy ops and is the production path. Its extend step keeps only the
groups it counted, and :meth:`VectorizedEngine.retain` ANDs the rows of
the survivors alone. The simulated engine executes
the genuine kernels thread-by-thread on :mod:`repro.gpusim` — slow, but
it is the ground truth for kernel correctness and the source of access
traces. Both produce *identical supports and identical modeled costs*
for the same run, which the test suite asserts.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

from ..bitset.bitset import BitsetMatrix
from ..bitset.hybrid import HybridLayout, count_cost_stats, hybrid_tables
from ..bitset.ops import and_rows, support_words
from ..errors import BitsetError, ConfigError, DeviceMemoryError, MiningError
from ..gpusim.device import TESLA_T10, DeviceProperties
from ..gpusim.perfmodel import GpuCostModel
from ..gpusim.stats import CoalescingStats, KernelStats
from ..obs import span
from .config import GPAprioriConfig
from .itemset import RunMetrics

__all__ = [
    "BatchPrice",
    "SupportEngine",
    "VectorizedEngine",
    "SimulatedEngine",
    "make_engine",
    "price_batch",
]


class BatchPrice(NamedTuple):
    """Modeled seconds and traffic of one counting batch."""

    htod: float
    kernel: float
    dtoh: float
    dense_entries: int
    """Rows read from dense storage: bitset rows and cached prefix rows."""
    sparse_tids: int
    """Tid-list entries walked (hybrid layout only)."""

    @property
    def seconds(self) -> float:
        """Upload, kernel and download back to back."""
        return self.htod + self.kernel + self.dtoh


def price_batch(
    kind: str,
    n: int,
    k: int,
    n_words: int,
    cost: GpuCostModel,
    config: GPAprioriConfig,
    layout: Optional[HybridLayout] = None,
    items: Optional[np.ndarray] = None,
    base: Optional[np.ndarray] = None,
) -> BatchPrice:
    """Price ``n`` candidates of length ``k`` counted over ``n_words`` words.

    ``kind`` is ``"complete"`` (AND all ``k`` generation-1 rows) or
    ``"extend"`` (``k=2``: AND a base row with one item row and write
    the result back). Under a hybrid ``layout``, ``items`` holds the
    item ids the batch resolves through it: the whole candidate buffer
    for complete intersection, the item column for extend. ``base``
    holds the extend base ids in the first extend generation, while
    they are still raw items; later bases are dense cached prefix rows.
    """
    if kind not in ("complete", "extend"):
        raise MiningError(f"unknown counting kind {kind!r}")
    shape = dict(
        n_candidates=n,
        n_words=n_words,
        block_size=config.block_size,
        coalescing_factor=1.0 if config.aligned else 2.0,
    )
    if kind == "complete":
        shape.update(k=k, preload_candidates=config.preload_candidates, unroll=config.unroll)
    if layout is None:
        dense_entries, sparse_tids = n * k, 0
        model = cost.support_kernel_time if kind == "complete" else cost.extend_kernel_time
        kc = model(**shape)
    else:
        dense_entries, sparse_tids = count_cost_stats(layout, items)
        if kind == "extend":
            d_base, s_base = (n, 0) if base is None else count_cost_stats(layout, base)
            dense_entries += d_base
            sparse_tids += s_base
        if kind == "complete":
            model = cost.hybrid_support_kernel_time
        else:
            model = cost.hybrid_extend_kernel_time
        kc = model(dense_entries=dense_entries, sparse_tids=sparse_tids, **shape)
    return BatchPrice(
        htod=cost.transfer_time(n * k * 4).seconds,
        kernel=kc.seconds,
        dtoh=cost.transfer_time(n * 8).seconds,
        dense_entries=dense_entries,
        sparse_tids=sparse_tids,
    )


def launch_kernel(*args, **kwargs):
    """:func:`repro.gpusim.kernel.launch_kernel`, imported on the first
    simulated launch so that the other engines never load the simulator."""
    from ..gpusim.kernel import launch_kernel as launch

    return launch(*args, **kwargs)


def _check_retain_indices(indices: np.ndarray, n_pending: int) -> np.ndarray:
    """Validate retain() indices against the pending-row count.

    Out-of-range indices are caller bugs; they must surface as
    :class:`MiningError` *before* any engine state is touched, so a
    failed retain leaves the pending rows intact for a corrected retry
    instead of corrupting the prefix cache.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.ndim != 1:
        raise MiningError(
            f"retain() indices must be 1-D, got shape {indices.shape}"
        )
    if indices.size and (indices.min() < 0 or indices.max() >= n_pending):
        raise MiningError(
            f"retain() index out of range: got [{indices.min()}, "
            f"{indices.max()}] against {n_pending} pending rows"
        )
    return indices


class SupportEngine:
    """Common accounting shared by both engines."""

    def __init__(
        self,
        config: GPAprioriConfig,
        metrics: RunMetrics,
        device: DeviceProperties = TESLA_T10,
    ) -> None:
        self.config = config
        self.metrics = metrics
        self.device = device
        self.cost = GpuCostModel(device)
        self.kernel_stats = KernelStats()
        # RunMetrics.generations is the single source of truth for
        # per-generation candidate counts; the stats share the list.
        self.kernel_stats.bind_generations(metrics.generations)
        self._matrix: Optional[BitsetMatrix] = None
        self._hybrid: Optional[HybridLayout] = None
        # Extra attributes merged into every kernel_launch span. The
        # partitioned engines use this to tag each member's launches
        # with its tid-range shard or its device.
        self.span_attrs: dict = {}

    # -- common bookkeeping -----------------------------------------------------

    @property
    def matrix(self) -> BitsetMatrix:
        if self._matrix is None:
            raise MiningError("engine.setup(matrix) must be called before counting")
        return self._matrix

    @property
    def hybrid(self) -> Optional[HybridLayout]:
        """The hybrid layout installed by setup(), or None when all-dense."""
        return self._hybrid

    @property
    def n_words(self) -> int:
        """Words per generation-1 row, whichever layout is installed."""
        if self._hybrid is not None:
            return self._hybrid.n_words
        return self.matrix.n_words

    @property
    def n_items(self) -> int:
        if self._hybrid is not None:
            return self._hybrid.n_items
        return self.matrix.n_items

    def setup(
        self,
        matrix: Optional[BitsetMatrix],
        hybrid: Optional[HybridLayout] = None,
    ) -> None:
        """Install the generation-1 table (modeled as one H2D copy).

        With ``hybrid`` given, the dense matrix is *not* shipped — the
        transfer charge and the resident-byte counter reflect the
        layout's actual ``device_bytes``, which is the whole point of
        hybridizing.
        """
        if matrix is None and hybrid is None:
            raise MiningError("engine.setup() needs a matrix or a hybrid layout")
        self._matrix = matrix
        self._hybrid = hybrid
        nbytes = hybrid.device_bytes if hybrid is not None else matrix.nbytes
        self.metrics.add_modeled(
            "htod_bitsets", self.cost.transfer_time(nbytes).seconds
        )
        self.metrics.add_counter("bitset_bytes_device", nbytes)

    def finalize(self) -> None:
        """Publish accumulated kernel stats into the metric registry."""
        self.kernel_stats.publish(self.metrics.registry)

    def _check_batch(
        self, kind: str, batch: np.ndarray, n_base: Optional[int] = None
    ) -> np.ndarray:
        """Validate a counting batch before any work; return it as int64.

        ``"complete"`` takes ``(n, k)`` item ids with ``k >= 1``;
        ``"extend"`` takes ``(n, 2)`` ``(base, item)`` pairs whose base
        indexes ``n_base`` cached prefix rows, or the items themselves
        while ``n_base`` is None. Shape and base errors raise
        :class:`MiningError`; ``k`` and item-id errors raise
        :class:`~repro.errors.BitsetError`, identically on every engine.
        """
        batch = items = np.ascontiguousarray(batch, dtype=np.int64)
        if kind == "extend":
            if batch.ndim != 2 or batch.shape[1] != 2:
                raise MiningError("pairs must be (n, 2) of (prefix_row, item_id)")
            base, items = batch[:, 0], batch[:, 1]
            if base.size:
                n_base = self.n_items if n_base is None else n_base
                if base.min() < 0 or base.max() >= n_base:
                    raise MiningError(f"extend pair references a prefix row outside [0, {n_base})")
        elif batch.ndim != 2 or batch.shape[1] == 0:
            raise BitsetError(f"candidates must be (n, k >= 1), got shape {batch.shape}")
        if items.size and (items.min() < 0 or items.max() >= self.n_items):
            raise BitsetError("candidate contains item id outside the matrix")
        return batch

    def _charge(self, kind: str, batch: np.ndarray, gen1_base: bool = False) -> dict:
        """Record one counting batch's :func:`price_batch` in the metrics.

        ``batch`` is the ``(n, k)`` candidate buffer, or for
        ``kind="extend"`` the ``(n, 2)`` (base, item) pairs, where
        ``gen1_base`` marks the first extend generation: its base ids
        are raw items, not cached prefix rows. Returns the per-phase
        modeled seconds so callers can attach them as span attributes.
        """
        n, k = batch.shape
        items, base = batch, None
        if kind == "extend":
            items, base = batch[:, 1], batch[:, 0] if gen1_base else None
        n_words = self.n_words
        price = price_batch(
            kind, n, k, n_words, self.cost, self.config, self._hybrid, items, base
        )
        m = self.metrics
        m.add_modeled("htod_candidates", price.htod)
        m.add_counter("bitset_words_anded", price.dense_entries * n_words)
        if self._hybrid is not None:
            m.add_counter("sparse_tids_probed", price.sparse_tids)
        m.add_modeled("kernel", price.kernel)
        m.add_modeled("dtoh_supports", price.dtoh)
        m.add_counter("popcounts", n * n_words)
        m.add_counter("candidates_counted", n)
        if kind == "extend":
            m.add_counter("prefix_row_bytes_written", n * n_words * 4)
        return {
            "modeled_htod_seconds": price.htod,
            "modeled_kernel_seconds": price.kernel,
            "modeled_dtoh_seconds": price.dtoh,
        }

    # -- interface ----------------------------------------------------------------

    def count_complete(self, candidates: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def count_extend(self, pairs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def retain(self, indices: np.ndarray) -> None:
        raise NotImplementedError


class VectorizedEngine(SupportEngine):
    """NumPy whole-array execution of the kernels' arithmetic.

    Every count resolves the batch's ids to ``(table, rows)`` groups
    and hands each group to :meth:`_count`, the one executor hook. In
    process it is :func:`~repro.bitset.ops.support_words`; the parallel
    engine overrides it to run the same call on a worker pool.
    """

    name = "vectorized"

    def __init__(self, config, metrics, device=TESLA_T10) -> None:
        super().__init__(config, metrics, device)
        self._prefix_rows: Optional[np.ndarray] = None  # None = use gen-1 table
        # count_extend's batch size and the groups it counted
        self._pending: Optional[Tuple[int, list]] = None

    def _count(
        self, words: np.ndarray, rows: np.ndarray, base: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Supports of ``rows`` over ``words`` (column 0 over ``base``)."""
        return support_words(words, rows, base)

    def _groups(self, batch: np.ndarray, base: Optional[np.ndarray]) -> list:
        """``(selector, table, rows)`` groups covering a validated batch.

        All-dense tables need no resolving. Under the hybrid layout the
        item columns resolve through :func:`hybrid_tables`; an extend
        batch's column 0 indexes ``base`` and passes through unchanged.
        """
        if self._hybrid is None:
            return [(np.ones(batch.shape[0], dtype=bool), self.matrix.words, batch)]
        if base is None:
            return hybrid_tables(self._hybrid, batch)
        return [
            (sel, table, np.column_stack((batch[sel, 0], rows)))
            for sel, table, rows in hybrid_tables(self._hybrid, batch[:, 1:])
        ]

    def _launch(
        self, kind: str, batch: np.ndarray, base: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, list]:
        """Count one non-empty batch inside its ``kernel_launch`` span.

        Returns the supports and the groups they were counted from.
        """
        n, k = batch.shape
        with span(
            "kernel_launch", engine=self.name, kind=kind, k=k, candidates=n, **self.span_attrs
        ) as sp:
            supports = np.empty(n, dtype=np.int64)
            groups = self._groups(batch, base)
            for sel, table, rows in groups:
                supports[sel] = self._count(table, rows, base)
            sp.set(**self._charge(kind, batch, base is None))
        return supports, groups

    def count_complete(self, candidates: np.ndarray) -> np.ndarray:
        candidates = self._check_batch("complete", candidates)
        if candidates.shape[0] == 0:
            return np.zeros(0, dtype=np.int64)
        return self._launch("complete", candidates)[0]

    def count_extend(self, pairs: np.ndarray) -> np.ndarray:
        """Count ``(prefix_row, item)`` pairs; :meth:`retain` builds rows.

        Only the resolved groups stay pending, not the ``(n, n_words)``
        result rows: :meth:`retain` ANDs the rows of the survivors alone.
        """
        base = self._prefix_rows
        pairs = self._check_batch("extend", pairs, None if base is None else base.shape[0])
        supports, groups = np.zeros(0, dtype=np.int64), []
        if pairs.shape[0]:
            supports, groups = self._launch("extend", pairs, base)
        self._pending = (pairs.shape[0], groups)
        return supports

    def retain(self, indices: np.ndarray) -> None:
        """Keep only the surviving candidates' rows as the prefix cache."""
        if self._pending is None:
            raise MiningError("retain() without a preceding count_extend()")
        n, groups = self._pending
        indices = _check_retain_indices(indices, n)
        base = self._prefix_rows
        rows = np.empty((indices.size, self.n_words), dtype=np.uint32)
        for sel, table, ids in groups:
            keep = sel[indices]
            # a survivor's row within its group: the selected rows before it
            rows[keep] = and_rows(table, ids[np.cumsum(sel)[indices[keep]] - 1], base)
        self._prefix_rows = rows
        self._pending = None
        self.metrics.add_counter(
            "prefix_rows_resident_bytes", int(self._prefix_rows.nbytes)
        )


class SimulatedEngine(SupportEngine):
    """Thread-faithful execution of the kernels on the SIMT simulator.

    Allocations go through the simulated 4 GiB global memory, so a
    workload whose equivalence-class prefix cache exceeds the T10's
    capacity raises :class:`~repro.errors.DeviceMemoryError` here — the
    very failure mode the paper's complete-intersection design avoids.
    It imports the simulator when built and the kernels when it counts,
    so the vectorized and parallel paths never load either.
    """

    def __init__(self, config, metrics, device=TESLA_T10) -> None:
        from ..gpusim.memory import GlobalMemory

        super().__init__(config, metrics, device)
        self.memory = GlobalMemory(device.global_mem_bytes)
        self._bitset_buf = None
        self._dense_buf = None  # hybrid layout's device arrays
        self._map_buf = None
        self._tids_buf = None
        self._offs_buf = None
        self._prefix_buf = None  # None = use gen-1 bitsets
        self._pending_buf = None
        self.last_trace = None
        self.coalescing_stats = CoalescingStats()

    def setup(
        self,
        matrix: Optional[BitsetMatrix],
        hybrid: Optional[HybridLayout] = None,
    ) -> None:
        super().setup(matrix, hybrid)
        if hybrid is not None:
            # Per-layout htod accounting: each array of the hybrid
            # layout is allocated and shipped separately, so the
            # simulator's TransferStats records the bytes actually
            # moved — a fraction of the all-dense matrix on sparse data.
            self._dense_buf = self.memory.alloc(
                "hybrid_dense", (hybrid.n_dense, hybrid.n_words), np.uint32
            )
            self._map_buf = self.memory.alloc(
                "hybrid_row_map", (hybrid.n_items,), np.int32
            )
            self._tids_buf = self.memory.alloc(
                "hybrid_tids", (hybrid.sparse_tids.size,), np.int32
            )
            self._offs_buf = self.memory.alloc(
                "hybrid_offsets", (hybrid.sparse_offsets.size,), np.int64
            )
            self.memory.htod(self._dense_buf, hybrid.dense_words)
            self.memory.htod(self._map_buf, hybrid.row_map)
            self.memory.htod(self._tids_buf, hybrid.sparse_tids)
            self.memory.htod(self._offs_buf, hybrid.sparse_offsets)
            return
        self._bitset_buf = self.memory.alloc(
            "bitsets", (matrix.n_items, matrix.n_words), np.uint32
        )
        self.memory.htod(self._bitset_buf, matrix.words)

    def _block_dim(self) -> int:
        # Functional runs shrink oversized blocks to the word count's
        # next power of two — simulating 256 idle lanes per word adds
        # nothing but wall-clock. The *model* still prices config.block_size.
        want = self.config.block_size
        words = self.n_words
        dim = 1
        while dim < min(want, words):
            dim *= 2
        return min(dim, self.device.max_threads_per_block, want)

    def _chunk_size(self, n: int, per_candidate_bytes: int) -> int:
        """Largest candidate chunk whose buffers fit free device memory.

        The paper's design keeps only the generation-1 bitsets resident;
        a generation whose candidate buffer alone exceeds the remaining
        global memory must be processed in chunks of back-to-back
        launches — functional robustness the original would need on a
        smaller device. (The cost model still prices the generation as
        one batch; chunking exists to preserve *correctness* under
        memory pressure, and a chunked launch moves identical bytes.)

        Raises a clean :class:`~repro.errors.DeviceMemoryError` naming
        the shortfall when not even a one-candidate chunk fits — the
        alternative is handing back a chunk that fails mid-allocation,
        leaking whatever buffers were already allocated.
        """
        free = self.memory.capacity_bytes - self.memory.bytes_in_use
        # leave headroom for allocator alignment padding
        headroom = 2 * self.memory.alignment
        fit = (free - headroom) // per_candidate_bytes if free > headroom else 0
        if fit < 1:
            raise DeviceMemoryError(
                f"cannot chunk launch: {free} bytes free on device, but one "
                f"candidate needs {per_candidate_bytes} bytes plus {headroom} "
                "bytes of alignment headroom"
            )
        return int(min(n, fit))

    def _launch(self, kernel, m: int, k: int, args: tuple) -> None:
        """Run ``kernel`` over one ``m``-block chunk of ``k``-item
        candidates; record its access trace and launch stats."""
        from ..gpusim.kernel import LaunchConfig

        result = launch_kernel(
            kernel,
            LaunchConfig(grid_dim=m, block_dim=self._block_dim()),
            args=args,
            device=self.device,
            trace=self.config.trace_accesses,
        )
        self.last_trace = result.trace
        if result.trace:
            self.coalescing_stats.record(self.coalescing_report())
        self.kernel_stats.record_launch(
            blocks=m,
            threads_per_block=result.config.block_dim,
            barriers=result.barriers,
            candidate_words=m * k * self.n_words,
            popcounts=m * self.n_words,
        )

    def count_complete(self, candidates: np.ndarray) -> np.ndarray:
        from .kernels import hybrid_support_count_kernel, support_count_kernel

        candidates = self._check_batch("complete", candidates).astype(np.int32)
        n, k = candidates.shape
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        out = np.empty(n, dtype=np.int64)
        chunk = self._chunk_size(n, k * 4 + 8)  # candidate ids + support slot
        with span(
            "kernel_launch", engine="simulated", kind="complete", k=k, candidates=n, **self.span_attrs
        ) as sp:
            for start in range(0, n, chunk):
                stop = min(start + chunk, n)
                m = stop - start
                # alloc -> launch -> free under try/finally: a failed
                # launch (or htod) must not leak the chunk's buffers.
                cand_buf = self.memory.alloc("candidates", (m, k), np.int32)
                sup_buf = None
                try:
                    self.memory.htod(cand_buf, candidates[start:stop])
                    sup_buf = self.memory.alloc("supports", (m,), np.int64)
                    if self._hybrid is not None:
                        kernel = hybrid_support_count_kernel
                        args = (
                            self._dense_buf,
                            self._map_buf,
                            self._tids_buf,
                            self._offs_buf,
                            cand_buf,
                            k,
                            self.n_words,
                            self._hybrid.n_transactions,
                            sup_buf,
                            self.config.preload_candidates,
                        )
                    else:
                        kernel = support_count_kernel
                        args = (
                            self._bitset_buf,
                            cand_buf,
                            k,
                            self.n_words,
                            sup_buf,
                            self.config.preload_candidates,
                        )
                    self._launch(kernel, m, k, args)
                    out[start:stop] = self.memory.dtoh(sup_buf)
                finally:
                    if sup_buf is not None:
                        self.memory.free(sup_buf)
                    self.memory.free(cand_buf)
            sp.set(chunks=-(-n // chunk), **self._charge("complete", candidates))
        return out

    def count_extend(self, pairs: np.ndarray) -> np.ndarray:
        from .kernels import extend_kernel, hybrid_extend_kernel

        n_base = None if self._prefix_buf is None else self._prefix_buf.shape[0]
        pairs = self._check_batch("extend", pairs, n_base).astype(np.int32)
        n = pairs.shape[0]
        n_words = self.n_words
        if n == 0:
            if self._pending_buf is not None:
                self.memory.free(self._pending_buf)
            self._pending_buf = self.memory.alloc(
                "prefix_rows_next", (0, n_words), np.uint32
            )
            return np.zeros(0, dtype=np.int64)
        gen1 = self._prefix_buf is None
        if self._hybrid is not None:
            # at generation 2 the base ids resolve through the layout
            # inside the kernel; the prefix arg is unused but must be a
            # real buffer, so hand it the dense block.
            prefix_buf = self._prefix_buf if not gen1 else self._dense_buf
        else:
            prefix_buf = self._prefix_buf if not gen1 else self._bitset_buf
        with span(
            "kernel_launch", engine="simulated", kind="extend", k=2, candidates=n, **self.span_attrs
        ) as sp:
            # The full result-row cache must be resident for retain();
            # if *it* does not fit, that is the equivalence-class plan's
            # genuine memory wall and the OOM propagates. The transient
            # pair/support buffers, however, chunk like count_complete.
            out_rows = self.memory.alloc("prefix_rows_next", (n, n_words), np.uint32)
            supports = np.empty(n, dtype=np.int64)
            try:
                # pair ids + support slot per candidate; a multi-chunk
                # pass additionally stages one result row per candidate.
                chunk = self._chunk_size(n, 2 * 4 + 8)
                if chunk < n:
                    chunk = self._chunk_size(n, 2 * 4 + 8 + n_words * 4)
                for start in range(0, n, chunk):
                    stop = min(start + chunk, n)
                    m = stop - start
                    single = m == n
                    pair_buf = self.memory.alloc("pairs", (m, 2), np.int32)
                    sup_buf = stage_buf = None
                    try:
                        self.memory.htod(pair_buf, pairs[start:stop])
                        sup_buf = self.memory.alloc("supports", (m,), np.int64)
                        # a lone chunk writes rows straight into the
                        # cache; chunked launches stage block-local rows
                        # and compact them device-to-device.
                        if not single:
                            stage_buf = self.memory.alloc(
                                "prefix_rows_stage", (m, n_words), np.uint32
                            )
                        row_buf = out_rows if single else stage_buf
                        if self._hybrid is not None:
                            kernel = hybrid_extend_kernel
                            args = (
                                prefix_buf,
                                self._dense_buf,
                                self._map_buf,
                                self._tids_buf,
                                self._offs_buf,
                                pair_buf,
                                n_words,
                                gen1,
                                row_buf,
                                sup_buf,
                            )
                        else:
                            kernel = extend_kernel
                            args = (
                                prefix_buf,
                                self._bitset_buf,
                                pair_buf,
                                n_words,
                                row_buf,
                                sup_buf,
                            )
                        self._launch(kernel, m, 2, args)
                        supports[start:stop] = self.memory.dtoh(sup_buf)
                        if not single:
                            # device-to-device compaction; no PCIe charge
                            out_rows.data[start:stop] = stage_buf.data
                    finally:
                        if stage_buf is not None:
                            self.memory.free(stage_buf)
                        if sup_buf is not None:
                            self.memory.free(sup_buf)
                        self.memory.free(pair_buf)
            except BaseException:
                self.memory.free(out_rows)
                raise
            if self._pending_buf is not None:
                self.memory.free(self._pending_buf)
            self._pending_buf = out_rows
            sp.set(
                chunks=-(-n // chunk),
                **self._charge("extend", pairs, gen1),
            )
        return supports

    def retain(self, indices: np.ndarray) -> None:
        if self._pending_buf is None:
            raise MiningError("retain() without a preceding count_extend()")
        indices = _check_retain_indices(indices, self._pending_buf.shape[0])
        kept = self._pending_buf.data[indices].copy()
        self.memory.free(self._pending_buf)
        if self._prefix_buf is not None:
            self.memory.free(self._prefix_buf)
        self._prefix_buf = self.memory.alloc(
            "prefix_rows", kept.shape, np.uint32
        )
        # device-to-device compaction; no PCIe charge
        self._prefix_buf.data[...] = kept
        self._pending_buf = None
        self.metrics.add_counter("prefix_rows_resident_bytes", int(kept.nbytes))

    def finalize(self) -> None:
        """Publish kernel *and* PCIe transfer stats into the registry."""
        super().finalize()
        self.memory.stats.publish(self.metrics.registry)
        if self.coalescing_stats.launches:
            self.coalescing_stats.publish(self.metrics.registry)
        self.metrics.registry.set_gauge(
            "device_bytes_in_use", self.memory.bytes_in_use
        )

    def coalescing_report(self):
        """Coalescing analysis of the last traced launch (or None)."""
        if not self.last_trace:
            return None
        from ..gpusim.coalescing import analyze_trace

        return analyze_trace(self.last_trace)


def make_engine(
    config: GPAprioriConfig,
    metrics: RunMetrics,
    device: DeviceProperties = TESLA_T10,
) -> SupportEngine:
    """Instantiate the engine named by ``config.engine``.

    A sharded config (``shards > 1`` or a ``memory_budget_bytes``)
    wraps the named engine in a
    :class:`~repro.core.partitioned.ShardedEngine` that streams
    tid-range shards of the bitset matrix through it.
    ``engine="multigpu"`` dispatches first: the fleet builds its
    members here too, so a sharded fleet config makes every device a
    ShardedEngine rather than one host-level ShardedEngine around the
    fleet.
    """
    if config.engine == "multigpu" or config.sharded:
        # imported lazily: partitioned.py builds on this module
        from .partitioned import FleetEngine, ShardedEngine

        wrapper = FleetEngine if config.engine == "multigpu" else ShardedEngine
        return wrapper(config, metrics, device)
    if config.engine == "vectorized":
        return VectorizedEngine(config, metrics, device)
    if config.engine == "simulated":
        return SimulatedEngine(config, metrics, device)
    if config.engine == "parallel":
        # imported lazily: parallel.py builds on this module
        from .parallel import ParallelEngine

        return ParallelEngine(config, metrics, device)
    raise ConfigError(f"unknown engine {config.engine!r}")
