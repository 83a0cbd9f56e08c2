"""Parallel shared-memory support-counting engine.

The paper's thesis is that support counting is data-parallel enough to
dominate everything else, and GPApriori feeds it to hundreds of GPU
lanes. This engine applies the same shape to host cores, after
Zymbler's many-core FIM (see PAPERS.md): one shared bitset table, with
workers over candidates.

:class:`ParallelEngine` is the
:class:`~repro.core.support.VectorizedEngine` with one hook replaced,
``_count(words, rows, base)``: it places ``words`` (and an extension's
prefix ``base``) in :mod:`multiprocessing.shared_memory`, cuts ``rows``
into per-worker :func:`~repro.bitset.ops.tile_bounds` tiles, and has a
persistent pool run :func:`~repro.bitset.ops.support_words` on each,
shipping only id arrays out and ``int64`` supports back. The table
installed at ``setup`` is published once; any other table (the hybrid
layout's densified rows, built once per batch in the parent, and the
prefix rows) is published for one call and destroyed after it.

Guarantees, asserted by the test suite:

* **bit-identical supports** to :class:`~repro.core.support.VectorizedEngine`
  (workers run :func:`~repro.bitset.ops.support_words` on the very same
  tables, merely mapped instead of copied);
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
from ..bitset.ops import support_words, tile_bounds
from ..errors import BitsetError, MiningError
from ..faults.degrade import record_degradation
from ..faults.injection import fault_point
from ..gpusim.device import TESLA_T10, DeviceProperties
from ..obs import current_span
from .support import VectorizedEngine

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
# ``kind`` keys the worker-side attachment cache, so a per-call table
# evicts its predecessor of the same kind instead of accumulating
# mappings, while the installed table stays mapped.
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


def _count_tile(
    tables: Tuple[_ShmRef, Optional[_ShmRef]], rows: np.ndarray
) -> np.ndarray:
    """Count one tile of rows over the attached ``(words, base)`` tables."""
    words_ref, base_ref = tables
    base = _attach(base_ref) if base_ref is not None else None
    return support_words(_attach(words_ref), rows, base)


# ---------------------------------------------------------------------------
# Parent-side engine.


class _Segment:
    """A parent-owned shared-memory segment holding one array."""

    def __init__(self, kind: str, array: np.ndarray) -> None:
        with _FORK_LOCK:
            self.shm = shared_memory.SharedMemory(create=True, size=array.nbytes)
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=self.shm.buf)
        view[...] = array
        self.ref: _ShmRef = (kind, self.shm.name, array.shape, array.dtype.str)

    def destroy(self) -> None:
        try:
            with _FORK_LOCK:
                self.shm.close()
                self.shm.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - double close
            pass


class ParallelEngine(VectorizedEngine):
    """The vectorized engine with its counting fanned out over processes.

    The GPU choreography maps onto host hardware: the bitset table
    "upload" is one copy into shared memory at ``setup`` (workers map
    it, they never receive it), the per-generation candidate transfer
    is pickled tile arguments, and the kernel grid is the tiles across
    the pool. The equivalence-class prefix rows, the device-resident
    cache the paper's Section IV.2 prices, ride along per call.
    """

    name = "parallel"

    def __init__(self, config, metrics, device: DeviceProperties = TESLA_T10) -> None:
        super().__init__(config, metrics, device)
        self.n_workers = resolve_workers(config.workers)
        self.min_parallel = MIN_PARALLEL_CANDIDATES
        self.task_timeout = TASK_TIMEOUT_SECONDS
        self._pool = None
        self._pool_broken = False  # also set by close(): never fork again
        self._installed: Optional[np.ndarray] = None
        self._installed_seg: Optional[_Segment] = None
        self.metrics.registry.set_gauge("parallel.workers", self.n_workers)

    # -- pool & segment plumbing ------------------------------------------------

    @property
    def in_process(self) -> bool:
        """Whether the engine has (so far) run without a worker pool."""
        return self._pool is None

    def setup(self, matrix: Optional[BitsetMatrix], hybrid=None) -> None:
        super().setup(matrix, hybrid)
        self._installed = hybrid.dense_words if hybrid is not None else matrix.words
        self._installed_seg = self._publish("installed", self._installed)

    def _publish(self, kind: str, array: np.ndarray) -> Optional[_Segment]:
        if array.nbytes == 0:
            return None
        seg = _Segment(kind, array)
        self.metrics.add_counter("parallel.shm_bytes", array.nbytes)
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

    def _share(self, kind: str, table, transient: List[_Segment]) -> Optional[_ShmRef]:
        """The segment reference of ``table``, publishing it if not installed."""
        if table is None:
            return None
        if table is not self._installed:
            transient.append(self._publish(kind, table))
            return transient[-1].ref
        return self._installed_seg.ref

    def _dispatch(self, words, rows, base, bounds) -> Optional[np.ndarray]:
        """Count ``bounds`` tiles on the pool; None means "run it in-process".

        Any infrastructure failure (worker crash, timeout, broken pipe)
        abandons the pool; domain errors from the tile math itself
        (``ReproError`` subclasses) propagate unchanged.
        """
        pool = self._ensure_pool()
        if pool is None or words.nbytes == 0:  # shared memory holds no empty arrays
            return None
        transient: List[_Segment] = []
        try:
            tables = (self._share("table", words, transient), self._share("base", base, transient))
            fault_point("parallel.submit", tiles=len(bounds))
            handles = [
                pool.apply_async(_count_tile, (tables, rows[start:stop]))
                for start, stop in bounds
            ]
            return np.concatenate([h.get(timeout=self.task_timeout) for h in handles])
        except (BitsetError, MiningError):
            raise
        except Exception as exc:
            # tear the misbehaving pool down and stop trying
            self._record_pool_failure(f"{type(exc).__name__}: {exc}")
            self._pool = None
            pool.terminate()
            pool.join()
            return None
        finally:
            for seg in transient:
                seg.destroy()

    # -- the executor hook ------------------------------------------------------

    def _count(
        self, words: np.ndarray, rows: np.ndarray, base: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Count on the pool when the batch is large enough, else in process."""
        n = rows.shape[0]
        bounds = tile_bounds(n, self.n_words * 4, min_tiles=self.n_workers)
        supports = self._dispatch(words, rows, base, bounds) if n >= self.min_parallel else None
        dispatched = supports is not None
        if supports is None:
            supports = super()._count(words, rows, base)
        self.metrics.add_counter("parallel.tiles", len(bounds))
        # one launch may count several tables (a hybrid batch's dense
        # and mixed groups): its span sums them
        sp = current_span()
        seen = getattr(sp, "attrs", {})
        sizes = seen.get("tile_candidates", []) + [stop - start for start, stop in bounds]
        sp.set(
            workers=self.n_workers,
            tiles=seen.get("tiles", 0) + len(bounds),
            tile_candidates=sizes[:16],
            dispatched=seen.get("dispatched", False) or dispatched,
        )
        return supports

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Shut the pool down and release every shared segment."""
        self._pool_broken = True
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()
        if self._installed_seg is not None:
            self._installed_seg.destroy()
        self._installed = self._installed_seg = None

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
