"""Support-counting engines: vectorized (NumPy) and simulated (gpusim).

Every engine installs one generation-1 table through
:meth:`SupportEngine.setup`: a :class:`~repro.bitset.bitset.BitsetMatrix`
or a :class:`~repro.bitset.hybrid.HybridLayout`. Each answers the
questions an engine asks of it (its size, its install bytes, the
groups a batch counts over), so the engines do not ask which one they
hold. Only the kernel-model choice in :func:`price_batch`, the
simulated engine's device arrays and kernel, the extend plan's
dense-only refusal and the ``sparse_tids_probed`` counter are
format-specific.

:class:`VectorizedEngine` resolves each batch's ids to ``(table, rows)``
groups with the table's ``count_groups`` (one group over a matrix; the
hybrid layout's :func:`~repro.bitset.hybrid.hybrid_tables`) and counts
every group through one executor hook, ``_count``, whose body is
:func:`~repro.bitset.ops.support_words`. The third engine,
:class:`~repro.core.parallel.ParallelEngine`, is a subclass that only
overrides that hook to run it on the calling thread plus a thread
pool, all reading the same tables. :meth:`SupportEngine._check_batch`
validates every batch, the same way on every engine, before any work.

All engines expose the same three operations the mining driver needs:

* :meth:`SupportEngine.count_complete` — complete-intersection counting
  of a ``(n, k)`` candidate buffer (paper Fig. 4 / Fig. 5);
* :meth:`SupportEngine.count_extend` / :meth:`SupportEngine.retain` —
  the equivalence-class alternative, extending cached prefix rows. It
  is the paper's Section IV.2 ablation, so only the three in-process
  engines serve it, over the dense table; the partitioned engines
  inherit the base class's refusal;
* modeled-cost accounting into a :class:`~repro.core.itemset.RunMetrics`.

One function, :func:`price_batch`, prices every counting batch on the
modeled Tesla T10: candidate upload, kernel and support download, plus
the dense-row and tid-list traffic. Only it picks the kernel model for
the kind (complete or extend) and table (dense or hybrid; extend is
dense only), calls
:func:`~repro.bitset.hybrid.count_cost_stats` and maps
``config.aligned`` to a coalescing factor. The engines record its
output; the shard stream, fleet clock, CPU/GPU balancer and GPU Eclat
call it for their own estimates.

The vectorized engine computes the same arithmetic with whole-array
NumPy ops and is the production path. Its extend step keeps only the
pairs it counted, and :meth:`VectorizedEngine.retain` ANDs the rows of
the survivors alone. The simulated engine executes
the genuine kernels thread-by-thread on :mod:`repro.gpusim` — slow, but
it is the ground truth for kernel correctness and the source of access
traces. Both produce *identical supports and identical modeled costs*
for the same run, which the test suite asserts.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from ..bitset.bitset import BitsetMatrix
from ..bitset.hybrid import HybridLayout, Table, count_cost_stats
from ..bitset.ops import and_rows, support_words
from ..errors import BitsetError, ConfigError, DeviceMemoryError, MiningError
from ..gpusim.device import TESLA_T10, DeviceProperties
from ..gpusim.perfmodel import GpuCostModel
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
    table: Optional[Table] = None,
    items: Optional[np.ndarray] = None,
) -> BatchPrice:
    """Price ``n`` candidates of length ``k`` counted over ``n_words`` words.

    ``kind`` is ``"complete"`` (AND all ``k`` generation-1 rows) or
    ``"extend"`` (``k=2``: AND a base row with one item row and write
    the result back; dense only). ``table`` is the generation-1 table
    the batch counts over, if any: a hybrid layout is priced on the
    hybrid kernel model, with ``items`` the candidate buffer it
    resolves; a bitset matrix or no table on the dense one.
    """
    if kind not in ("complete", "extend"):
        raise MiningError(f"unknown counting kind {kind!r}")
    layout = table if isinstance(table, HybridLayout) else None
    if kind == "extend" and layout is not None:
        raise MiningError("extend batches count over the dense layout only")
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
        kc = cost.hybrid_support_kernel_time(
            dense_entries=dense_entries, sparse_tids=sparse_tids, **shape
        )
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
        self._table: Optional[Table] = None
        # Extra attributes merged into every kernel_launch span. The
        # partitioned engines use this to tag each member's launches
        # with its tid-range shard or its device.
        self.span_attrs: dict = {}

    # -- common bookkeeping -----------------------------------------------------

    @property
    def table(self) -> Table:
        """The generation-1 table :meth:`setup` installed."""
        if self._table is None:
            raise MiningError("engine.setup(table) must be called before counting")
        return self._table

    @property
    def n_words(self) -> int:
        return self.table.n_words

    @property
    def n_items(self) -> int:
        return self.table.n_items

    def setup(self, table: Table) -> None:
        """Install the generation-1 table (modeled as one H2D copy).

        The charge is ``table.nbytes``: a hybrid layout ships its four
        arrays, not the dense matrix, which is the whole point of
        hybridizing.
        """
        self._table = table
        self.metrics.add_modeled(
            "htod_bitsets", self.cost.transfer_time(table.nbytes).seconds
        )
        self.metrics.add_counter("bitset_bytes_device", table.nbytes)

    def finalize(self) -> None:
        """Publish end-of-run figures into the metric registry (none here)."""

    def close(self) -> None:
        """Release host resources (threads); idempotent, and a no-op here."""

    def _check_batch(
        self, kind: str, batch: np.ndarray, n_base: Optional[int] = None
    ) -> np.ndarray:
        """Validate a counting batch before any work; return it as int64.

        ``"complete"`` takes ``(n, k)`` item ids with ``k >= 1``;
        ``"extend"`` takes ``(n, 2)`` ``(base, item)`` pairs whose base
        indexes ``n_base`` cached prefix rows, or the items themselves
        while ``n_base`` is None, over the dense table only. Layout,
        shape and base errors raise :class:`MiningError`; ``k`` and
        item-id errors raise :class:`~repro.errors.BitsetError`,
        identically on every engine.
        """
        batch = items = np.ascontiguousarray(batch, dtype=np.int64)
        if kind == "extend":
            if not isinstance(self.table, BitsetMatrix):
                raise MiningError("extend counting needs the dense layout, not hybrid")
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

    def _charge(self, kind: str, batch: np.ndarray) -> dict:
        """Record one counting batch's :func:`price_batch` in the metrics.

        ``batch`` is the ``(n, k)`` candidate buffer, or for
        ``kind="extend"`` the ``(n, 2)`` (base, item) pairs. Returns the
        per-phase modeled seconds so callers can attach them as span
        attributes.
        """
        n, k = batch.shape
        n_words = self.n_words
        price = price_batch(kind, n, k, n_words, self.cost, self.config, self.table, batch)
        m = self.metrics
        m.add_modeled("htod_candidates", price.htod)
        m.add_counter("bitset_words_anded", price.dense_entries * n_words)
        if isinstance(self.table, HybridLayout):
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
        """Extend cached prefix rows; only the engines that serve the
        equivalence-class ablation override this and :meth:`retain`."""
        raise MiningError(
            f"{type(self).__name__} implements the complete-intersection "
            "plan only; plan='equivalence' runs on one dense, unsharded "
            "vectorized, parallel or simulated engine"
        )

    def retain(self, indices: np.ndarray) -> None:
        self.count_extend(indices)  # refused the same way


class VectorizedEngine(SupportEngine):
    """NumPy whole-array execution of the kernels' arithmetic.

    Every count resolves the batch's ids to ``(table, rows)`` groups
    and hands each group to :meth:`_count`, the one executor hook. In
    process it is :func:`~repro.bitset.ops.support_words`; the parallel
    engine overrides it to run the same call over a thread pool.
    """

    name = "vectorized"

    def __init__(self, config, metrics, device=TESLA_T10) -> None:
        super().__init__(config, metrics, device)
        self._prefix_rows: Optional[np.ndarray] = None  # None = use gen-1 table
        self._pending: Optional[np.ndarray] = None  # count_extend's pairs

    def _count(
        self, words: np.ndarray, rows: np.ndarray, base: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Supports of ``rows`` over ``words`` (column 0 over ``base``)."""
        return support_words(words, rows, base)

    def _launch(
        self, kind: str, batch: np.ndarray, base: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Count one non-empty batch inside its ``kernel_launch`` span,
        group by group of :meth:`count_groups` on the installed table."""
        n, k = batch.shape
        with span(
            "kernel_launch", engine=self.name, kind=kind, k=k, candidates=n, **self.span_attrs
        ) as sp:
            supports = np.empty(n, dtype=np.int64)
            for sel, table, rows in self.table.count_groups(batch):
                supports[sel] = self._count(table, rows, base)
            sp.set(**self._charge(kind, batch))
        return supports

    def count_complete(self, candidates: np.ndarray) -> np.ndarray:
        candidates = self._check_batch("complete", candidates)
        if candidates.shape[0] == 0 or self.n_words == 0:
            return np.zeros(candidates.shape[0], dtype=np.int64)
        return self._launch("complete", candidates)

    def count_extend(self, pairs: np.ndarray) -> np.ndarray:
        """Count ``(prefix_row, item)`` pairs; :meth:`retain` builds rows.

        Only the pairs stay pending, not the ``(n, n_words)`` result
        rows: :meth:`retain` ANDs the rows of the survivors alone.
        """
        base = self._prefix_rows
        pairs = self._check_batch("extend", pairs, None if base is None else base.shape[0])
        supports = np.zeros(pairs.shape[0], dtype=np.int64)
        if pairs.shape[0] and self.n_words:
            supports = self._launch("extend", pairs, base)
        self._pending = pairs
        return supports

    def retain(self, indices: np.ndarray) -> None:
        """Keep only the surviving candidates' rows as the prefix cache."""
        if self._pending is None:
            raise MiningError("retain() without a preceding count_extend()")
        indices = _check_retain_indices(indices, self._pending.shape[0])
        # extend batches count over the one dense table
        self._prefix_rows = and_rows(self.table.words, self._pending[indices], self._prefix_rows)
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
        self.memory = GlobalMemory(device.global_mem_bytes, registry=metrics.registry)
        self._table_bufs: tuple = ()  # the table's device arrays
        self._prefix_buf = None  # None = use gen-1 bitsets
        self._pending_buf = None
        self.last_trace = None

    def setup(self, table: Table) -> None:
        super().setup(table)
        if isinstance(table, HybridLayout):
            # Per-layout htod accounting: each array of the hybrid
            # layout is allocated and shipped separately, so the
            # transfer.* counters record the bytes actually moved — a
            # fraction of the all-dense matrix on sparse data.
            arrays = (
                ("hybrid_dense", table.dense_words),
                ("hybrid_row_map", table.row_map),
                ("hybrid_tids", table.sparse_tids),
                ("hybrid_offsets", table.sparse_offsets),
            )
        else:
            arrays = (("bitsets", table.words),)
        self._table_bufs = tuple(self.memory.alloc(name, a.shape, a.dtype) for name, a in arrays)
        for buf, (_, a) in zip(self._table_bufs, arrays):
            self.memory.htod(buf, a)

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
        candidates; record its access trace and add its launch figures
        to the run's ``kernel.*`` and ``coalescing.*`` counters."""
        from ..gpusim.kernel import LaunchConfig

        result = launch_kernel(
            kernel,
            LaunchConfig(grid_dim=m, block_dim=self._block_dim()),
            args=args,
            device=self.device,
            trace=self.config.trace_accesses,
        )
        self.last_trace = result.trace
        add = self.metrics.add_counter
        add("kernel.launches", 1)
        add("kernel.blocks", m)
        add("kernel.threads", m * result.config.block_dim)
        add("kernel.barriers", result.barriers)
        add("kernel.candidate_words", m * k * self.n_words)  # words AND-ed
        add("kernel.popcounts", m * self.n_words)
        if result.trace:
            report = self.coalescing_report()
            add("coalescing.launches", 1)
            add("coalescing.accesses", report.n_accesses)
            add("coalescing.transactions", report.n_transactions)
            add("coalescing.bytes_requested", report.bytes_requested)
            add("coalescing.bytes_transferred", report.bytes_transferred)

    def count_complete(self, candidates: np.ndarray) -> np.ndarray:
        from .kernels import hybrid_support_count_kernel, support_count_kernel

        candidates = self._check_batch("complete", candidates).astype(np.int32)
        n, k = candidates.shape
        if n == 0 or self.n_words == 0:
            return np.zeros(n, dtype=np.int64)
        if isinstance(self.table, HybridLayout):
            kernel, n_tx = hybrid_support_count_kernel, (self.table.n_transactions,)
        else:
            kernel, n_tx = support_count_kernel, ()
        preload = self.config.preload_candidates
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
                    args = (*self._table_bufs, cand_buf, k, self.n_words, *n_tx, sup_buf, preload)
                    self._launch(kernel, m, k, args)
                    out[start:stop] = self.memory.dtoh(sup_buf)
                finally:
                    if sup_buf is not None:
                        self.memory.free(sup_buf)
                    self.memory.free(cand_buf)
            sp.set(chunks=-(-n // chunk), **self._charge("complete", candidates))
        return out

    def count_extend(self, pairs: np.ndarray) -> np.ndarray:
        from .kernels import extend_kernel

        n_base = None if self._prefix_buf is None else self._prefix_buf.shape[0]
        pairs = self._check_batch("extend", pairs, n_base).astype(np.int32)
        n = pairs.shape[0]
        n_words = self.n_words
        if n == 0 or n_words == 0:
            if self._pending_buf is not None:
                self.memory.free(self._pending_buf)
            self._pending_buf = self.memory.alloc(
                "prefix_rows_next", (n, n_words), np.uint32
            )
            return np.zeros(n, dtype=np.int64)
        # generation 2 extends the items' own bitset rows
        (bitset_buf,) = self._table_bufs
        prefix_buf = bitset_buf if self._prefix_buf is None else self._prefix_buf
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
                        args = (prefix_buf, bitset_buf, pair_buf, n_words, row_buf, sup_buf)
                        self._launch(extend_kernel, m, 2, args)
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
            sp.set(chunks=-(-n // chunk), **self._charge("extend", pairs))
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
        """Publish the device's peak and resident bytes (the transfer
        counters grew at every hop)."""
        reg = self.metrics.registry
        reg.set_gauge("transfer.peak_bytes", self.memory.peak_bytes)
        reg.set_gauge("device_bytes_in_use", self.memory.bytes_in_use)

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
