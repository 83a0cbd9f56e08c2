"""Parallel shared-memory support-counting engine.

The paper's thesis is that support counting is data-parallel enough to
dominate everything else, and GPApriori feeds it to hundreds of GPU
lanes. This engine applies the same shape to host cores (after
Zymbler's many-core bitset/popcount result, see PAPERS.md): the
read-only generation-1 :class:`~repro.bitset.bitset.BitsetMatrix` words
are placed in :mod:`multiprocessing.shared_memory` once, each
generation's candidate buffer is sharded into per-worker tiles with the
same tiling math :func:`~repro.bitset.ops.support_many` uses, and a
persistent pool of worker processes counts the tiles concurrently —
shipping only the small candidate id arrays out and the ``int64``
supports back, never the bitsets.

Guarantees, asserted by the test suite:

* **bit-identical supports** to :class:`~repro.core.support.VectorizedEngine`
  (workers run :func:`~repro.bitset.ops.support_words` on the very same
  word array, merely mapped instead of copied);
* **identical modeled costs** — the cost model prices operation counts,
  not host execution strategy;
* **graceful fallback** — when worker processes are unavailable (no
  ``fork`` start method, pool creation fails, a task times out) the
  engine degrades to in-process execution and keeps producing the same
  answers.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from multiprocessing import shared_memory
from typing import List, Optional, Tuple

import numpy as np

from ..bitset.bitset import BitsetMatrix
from ..bitset.hybrid import HybridLayout, hybrid_extend_rows, hybrid_supports
from ..bitset.ops import row_supports, support_words, tile_bounds
from ..errors import BitsetError, MiningError
from ..faults.degrade import record_degradation
from ..faults.injection import fault_point
from ..gpusim.device import TESLA_T10, DeviceProperties
from ..obs import span
from .support import SupportEngine, _check_retain_indices

__all__ = ["ParallelEngine", "resolve_workers"]

MAX_AUTO_WORKERS = 8
"""Auto-sized pools never exceed this many workers."""

MIN_PARALLEL_CANDIDATES = 32
"""Generations smaller than this run in-process: pool dispatch overhead
would exceed the counting work itself."""

TASK_TIMEOUT_SECONDS = 300.0
"""Per-tile result deadline; a wedged worker pool degrades to
in-process execution instead of hanging the run."""

_FORK_LOCK = threading.Lock()
"""Serializes pool forks against parent-side resource-tracker traffic.

``SharedMemory`` create/unlink talk to the process-global
``multiprocessing.resource_tracker`` under its module lock. When a
threaded host (the service scheduler) builds two parallel engines
concurrently, one thread can fork its pool at the exact moment another
holds that lock — the children inherit it *held* and deadlock on their
first segment attach, wedging the pool until the task timeout. Taking
one lock around both the fork and every tracker-touching call closes
the window; worker processes never touch this lock."""

# A shared-memory reference: (kind, segment name, shape, dtype string).
# ``kind`` keys the worker-side attachment cache, so a refreshed prefix
# segment evicts its predecessor instead of accumulating mappings.
_ShmRef = Tuple[str, str, Tuple[int, ...], str]


def resolve_workers(workers: int) -> int:
    """Translate the config's ``workers`` knob into a pool size.

    ``0`` auto-sizes to the usable core count (respecting CPU affinity
    when the platform exposes it) capped at :data:`MAX_AUTO_WORKERS`.
    """
    if workers > 0:
        return workers
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        usable = os.cpu_count() or 1
    return max(1, min(MAX_AUTO_WORKERS, usable))


# ---------------------------------------------------------------------------
# Worker-side code. Module-level so the pool can import it; each worker
# caches one attached segment per kind and reads it zero-copy.

_ATTACHED: dict = {}  # kind -> (name, SharedMemory, np.ndarray)


def _attach(ref: _ShmRef) -> np.ndarray:
    """Map a shared segment as a read-only array, caching per kind."""
    kind, name, shape, dtype = ref
    cached = _ATTACHED.get(kind)
    if cached is not None and cached[0] == name:
        return cached[2]
    if cached is not None:
        cached[1].close()
    # NOTE: attaching registers the name with the resource tracker, but
    # the pool is fork-based, so workers share the parent's tracker
    # process and its name cache is a set — the duplicate registrations
    # collapse and the parent's single unlink() cleans the entry up.
    shm = shared_memory.SharedMemory(name=name)
    arr = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
    arr.setflags(write=False)
    _ATTACHED[kind] = (name, shm, arr)
    return arr


def _complete_tile(matrix_ref: _ShmRef, candidates: np.ndarray) -> np.ndarray:
    """Count one tile of complete-intersection candidates."""
    return support_words(_attach(matrix_ref), candidates)


def _extend_tile(
    matrix_ref: _ShmRef,
    prefix_ref: Optional[_ShmRef],
    pairs: np.ndarray,
) -> np.ndarray:
    """Count one tile of (prefix_row, item) extension pairs."""
    words = _attach(matrix_ref)
    base = _attach(prefix_ref) if prefix_ref is not None else words
    rows = base[pairs[:, 0]] & words[pairs[:, 1]]
    return row_supports(rows)


def _attach_or_empty(
    ref: Optional[_ShmRef], shape: Tuple[int, ...], dtype
) -> np.ndarray:
    """Attach a segment, or rebuild the zero-byte array it stands for.

    ``_publish`` returns None for empty arrays (shared memory cannot
    hold zero bytes), so degenerate hybrid pieces — an all-sparse
    layout's dense block, an all-dense layout's tid store — are
    reconstructed from their shape instead.
    """
    if ref is None:
        return np.zeros(shape, dtype=dtype)
    return _attach(ref)


# A hybrid layout shipped by reference: the four array refs plus the
# scalar geometry workers need to rebuild empty pieces.
_HybridRefs = Tuple[
    Optional[_ShmRef],  # dense words
    Optional[_ShmRef],  # row map
    Optional[_ShmRef],  # sparse tids
    Optional[_ShmRef],  # sparse offsets
    Tuple[int, int, int, int, int],  # n_dense, n_words, n_items, n_tids, n_tx
]


def _hybrid_from_refs(refs: _HybridRefs) -> HybridLayout:
    dense_ref, map_ref, tids_ref, offs_ref, meta = refs
    n_dense, n_words, n_items, n_tids, n_tx = meta
    return HybridLayout.from_parts(
        _attach_or_empty(dense_ref, (n_dense, n_words), np.uint32),
        _attach_or_empty(map_ref, (n_items,), np.int32),
        _attach_or_empty(tids_ref, (n_tids,), np.int32),
        _attach_or_empty(offs_ref, (1,), np.int64),
        n_tx,
    )


def _hybrid_complete_tile(refs: _HybridRefs, candidates: np.ndarray) -> np.ndarray:
    """Count one tile of candidates against the hybrid layout."""
    return hybrid_supports(_hybrid_from_refs(refs), candidates)


def _hybrid_extend_tile(
    refs: _HybridRefs,
    prefix_ref: Optional[_ShmRef],
    pairs: np.ndarray,
) -> np.ndarray:
    """Count one tile of extension pairs against the hybrid layout."""
    base = _attach(prefix_ref) if prefix_ref is not None else None
    _, supports = hybrid_extend_rows(_hybrid_from_refs(refs), base, pairs)
    return supports


# ---------------------------------------------------------------------------
# Parent-side engine.


class _Segment:
    """A parent-owned shared-memory segment holding one array."""

    def __init__(self, kind: str, array: np.ndarray) -> None:
        self.kind = kind
        with _FORK_LOCK:
            self.shm = shared_memory.SharedMemory(create=True, size=array.nbytes)
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=self.shm.buf)
        view[...] = array
        self.ref: _ShmRef = (kind, self.shm.name, array.shape, array.dtype.str)
        self.nbytes = array.nbytes

    def destroy(self) -> None:
        try:
            with _FORK_LOCK:
                self.shm.close()
                self.shm.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - double close
            pass


class ParallelEngine(SupportEngine):
    """Multi-process execution of the vectorized counting arithmetic.

    The GPU choreography maps one-to-one onto host hardware: the bitset
    table "upload" becomes one copy into shared memory (workers map it,
    they never receive it), the per-generation candidate transfer
    becomes pickled tile arguments, and the kernel grid becomes
    :func:`~repro.bitset.ops.tile_bounds` shards across the pool. The
    equivalence-class prefix cache is re-published as a fresh shared
    segment after each :meth:`retain`, mirroring the device-resident
    cache the paper's Section IV.2 analysis prices.
    """

    def __init__(self, config, metrics, device: DeviceProperties = TESLA_T10) -> None:
        super().__init__(config, metrics, device)
        self.n_workers = resolve_workers(config.workers)
        self.min_parallel = MIN_PARALLEL_CANDIDATES
        self.task_timeout = TASK_TIMEOUT_SECONDS
        self._pool = None
        self._pool_broken = False
        self._matrix_seg: Optional[_Segment] = None
        self._hybrid_segs: List[_Segment] = []
        self._hybrid_refs: Optional[_HybridRefs] = None
        self._prefix_seg: Optional[_Segment] = None
        self._prefix_rows: Optional[np.ndarray] = None  # None = gen-1 matrix
        self._prefix_dirty = False
        self._pending_pairs: Optional[np.ndarray] = None
        self.metrics.registry.set_gauge("parallel.workers", self.n_workers)

    # -- pool & segment plumbing ------------------------------------------------

    @property
    def in_process(self) -> bool:
        """Whether the engine has (so far) run without a worker pool."""
        return self._pool is None

    def setup(
        self,
        matrix: Optional[BitsetMatrix],
        hybrid: Optional[HybridLayout] = None,
    ) -> None:
        super().setup(matrix, hybrid)
        if hybrid is not None:
            # The dense block and the tid-list slabs each become their
            # own segment: workers map the dense tiles shared while the
            # (small) tid-lists ride along per attachment.
            pieces = [
                ("hybrid_dense", hybrid.dense_words),
                ("hybrid_row_map", hybrid.row_map),
                ("hybrid_tids", hybrid.sparse_tids),
                ("hybrid_offsets", hybrid.sparse_offsets),
            ]
            refs = []
            for kind, array in pieces:
                seg = self._publish(kind, array)
                if seg is not None:
                    self._hybrid_segs.append(seg)
                refs.append(seg.ref if seg is not None else None)
            meta = (
                hybrid.n_dense,
                hybrid.n_words,
                hybrid.n_items,
                hybrid.sparse_tids.size,
                hybrid.n_transactions,
            )
            self._hybrid_refs = (*refs, meta)
            return
        self._matrix_seg = self._publish("bitset_matrix", matrix.words)

    def _publish(self, kind: str, array: np.ndarray) -> Optional[_Segment]:
        if array.nbytes == 0:
            return None
        seg = _Segment(kind, array)
        self.metrics.add_counter("parallel.shm_bytes", seg.nbytes)
        return seg

    def _ensure_pool(self):
        """The persistent worker pool, or None when unavailable."""
        if self._pool is not None:
            return self._pool
        if self._pool_broken or self.n_workers <= 1:
            return None
        try:
            ctx = multiprocessing.get_context("fork")
            with _FORK_LOCK:
                self._pool = ctx.Pool(self.n_workers)
        except (ValueError, OSError, ImportError):
            # no fork on this platform / process limits hit: degrade to
            # in-process execution, permanently for this engine.
            self._pool = None
            self._record_pool_failure("pool creation failed")
        return self._pool

    def _abandon_pool(self, reason: str = "pool task failed") -> None:
        """Tear down a misbehaving pool and stop trying."""
        pool, self._pool = self._pool, None
        self._record_pool_failure(reason)
        if pool is not None:
            pool.terminate()
            pool.join()

    def _record_pool_failure(self, reason: str) -> None:
        self._pool_broken = True
        self.metrics.add_counter("parallel.pool_failures", 1)
        record_degradation(
            self.metrics.registry,
            site="parallel.submit",
            from_mode="pool",
            to_mode="in_process",
            reason=reason,
            workers=self.n_workers,
        )

    def _map_tiles(self, fn, per_tile_args: List[tuple]) -> Optional[List[np.ndarray]]:
        """Fan tiles out to the pool; None means "run it in-process".

        Any infrastructure failure (worker crash, timeout, broken pipe)
        abandons the pool; domain errors from the tile math itself
        (``ReproError`` subclasses) propagate unchanged.
        """
        pool = self._ensure_pool()
        if pool is None:
            return None
        try:
            fault_point("parallel.submit", tiles=len(per_tile_args))
            handles = [pool.apply_async(fn, args) for args in per_tile_args]
            return [h.get(timeout=self.task_timeout) for h in handles]
        except (BitsetError, MiningError):
            raise
        except Exception as exc:
            self._abandon_pool(f"{type(exc).__name__}: {exc}")
            return None

    def _tiles(self, n: int) -> List[Tuple[int, int]]:
        row_bytes = self.n_words * 4
        return tile_bounds(n, row_bytes, min_tiles=self.n_workers)

    def _record_tiles(self, sp, bounds, dispatched: bool) -> None:
        sizes = [stop - start for start, stop in bounds]
        self.metrics.add_counter("parallel.tiles", len(bounds))
        sp.set(
            workers=self.n_workers,
            tiles=len(bounds),
            tile_candidates=sizes[:16],
            dispatched=dispatched,
        )

    # -- counting ----------------------------------------------------------------

    def count_complete(self, candidates: np.ndarray) -> np.ndarray:
        candidates = np.ascontiguousarray(candidates, dtype=np.int64)
        n, k = candidates.shape
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        if candidates.min() < 0 or candidates.max() >= self.n_items:
            raise BitsetError("candidate contains item id outside the matrix")
        with span(
            "kernel_launch", engine="parallel", kind="complete", k=k, candidates=n, **self.span_attrs
        ) as sp:
            bounds = self._tiles(n)
            results = None
            if n >= self.min_parallel:
                if self._hybrid is not None and self._hybrid_refs is not None:
                    results = self._map_tiles(
                        _hybrid_complete_tile,
                        [
                            (self._hybrid_refs, candidates[start:stop])
                            for start, stop in bounds
                        ],
                    )
                elif self._hybrid is None and self._matrix_seg is not None:
                    results = self._map_tiles(
                        _complete_tile,
                        [
                            (self._matrix_seg.ref, candidates[start:stop])
                            for start, stop in bounds
                        ],
                    )
            if results is None:
                if self._hybrid is not None:
                    supports = hybrid_supports(self._hybrid, candidates)
                else:
                    supports = support_words(self.matrix.words, candidates)
                self._record_tiles(sp, bounds, dispatched=False)
            else:
                supports = np.concatenate(results)
                self._record_tiles(sp, bounds, dispatched=True)
            sp.set(**self._charge("complete", candidates))
        return supports

    def count_extend(self, pairs: np.ndarray) -> np.ndarray:
        pairs = np.ascontiguousarray(pairs, dtype=np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise MiningError("pairs must be (n, 2) of (prefix_row, item_id)")
        n = pairs.shape[0]
        if n == 0:
            self._pending_pairs = pairs
            return np.zeros(0, dtype=np.int64)
        gen1 = self._prefix_rows is None
        n_base = self._prefix_rows.shape[0] if not gen1 else self.n_items
        if pairs.min() < 0:
            raise MiningError("extend pair contains a negative index")
        if pairs[:, 0].max() >= n_base:
            raise MiningError("extend pair references a prefix row out of range")
        if pairs[:, 1].max() >= self.n_items:
            raise BitsetError("candidate contains item id outside the matrix")
        with span(
            "kernel_launch", engine="parallel", kind="extend", k=2, candidates=n, **self.span_attrs
        ) as sp:
            bounds = self._tiles(n)
            results = None
            if n >= self.min_parallel:
                if self._hybrid is not None and self._hybrid_refs is not None:
                    prefix_ref = self._publish_prefix()
                    results = self._map_tiles(
                        _hybrid_extend_tile,
                        [
                            (self._hybrid_refs, prefix_ref, pairs[start:stop])
                            for start, stop in bounds
                        ],
                    )
                elif self._hybrid is None and self._matrix_seg is not None:
                    prefix_ref = self._publish_prefix()
                    results = self._map_tiles(
                        _extend_tile,
                        [
                            (self._matrix_seg.ref, prefix_ref, pairs[start:stop])
                            for start, stop in bounds
                        ],
                    )
            if results is None:
                supports = row_supports(self._extend_rows(pairs))
                self._record_tiles(sp, bounds, dispatched=False)
            else:
                supports = np.concatenate(results)
                self._record_tiles(sp, bounds, dispatched=True)
            self._pending_pairs = pairs
            sp.set(**self._charge("extend", pairs, gen1))
        return supports

    def _extend_rows(self, pairs: np.ndarray) -> np.ndarray:
        """The AND-ed rows of ``pairs`` against the current prefix cache."""
        if self._hybrid is not None:
            return hybrid_extend_rows(self._hybrid, self._prefix_rows, pairs)[0]
        base = self.matrix.words if self._prefix_rows is None else self._prefix_rows
        return base[pairs[:, 0]] & self.matrix.words[pairs[:, 1]]

    def _publish_prefix(self) -> Optional[_ShmRef]:
        """Current prefix cache as a shared segment (None = gen-1 table).

        Re-published lazily: :meth:`retain` only marks the cache dirty,
        so generations that stay in-process never pay the copy.
        """
        if self._prefix_rows is None:
            return None
        if self._prefix_dirty or self._prefix_seg is None:
            if self._prefix_seg is not None:
                self._prefix_seg.destroy()
            self._prefix_seg = self._publish("prefix_rows", self._prefix_rows)
            self._prefix_dirty = False
        return self._prefix_seg.ref if self._prefix_seg is not None else None

    def retain(self, indices: np.ndarray) -> None:
        """Compact survivors into the prefix cache (recomputed, not
        round-tripped: workers return supports only, so the surviving
        rows are re-derived host-side from the retained pairs)."""
        if self._pending_pairs is None:
            raise MiningError("retain() without a preceding count_extend()")
        indices = _check_retain_indices(indices, self._pending_pairs.shape[0])
        self._prefix_rows = self._extend_rows(self._pending_pairs[indices])
        self._prefix_dirty = True
        self._pending_pairs = None
        self.metrics.add_counter(
            "prefix_rows_resident_bytes", int(self._prefix_rows.nbytes)
        )

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Shut the pool down and release every shared segment."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()
        for seg_attr in ("_matrix_seg", "_prefix_seg"):
            seg = getattr(self, seg_attr)
            if seg is not None:
                seg.destroy()
                setattr(self, seg_attr, None)
        for seg in self._hybrid_segs:
            seg.destroy()
        self._hybrid_segs = []
        self._hybrid_refs = None

    def finalize(self) -> None:
        super().finalize()
        self.metrics.registry.set_gauge(
            "parallel.in_process", 0 if self._pool is not None else 1
        )
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass
