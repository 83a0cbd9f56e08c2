"""Parallel thread-pool support-counting engine.

The paper's thesis is that support counting is data-parallel enough to
dominate everything else, and GPApriori feeds it to hundreds of GPU
lanes. This engine applies the same shape to host cores, after
Zymbler's many-core FIM (see PAPERS.md): one shared bitset table, with
threads over candidates.

:class:`ParallelEngine` is the
:class:`~repro.core.support.VectorizedEngine` with one hook replaced,
``_count(words, rows, base)``: it cuts ``rows`` into one contiguous
block per worker, submits blocks 1..n-1 to a thread pool and counts
block 0 on the calling thread, every block with
:func:`~repro.bitset.ops.support_words`. Each step of that core (the
gather, ``bitwise_and``, ``bitwise_count`` and ``sum``) releases the
GIL, so the threads count side by side over the installed table, the
hybrid layout's densified rows and the prefix ``base`` in place: no
table is copied, published or pickled.

Guarantees, asserted by the test suite:

* **bit-identical supports** to :class:`~repro.core.support.VectorizedEngine`
  (every block runs :func:`~repro.bitset.ops.support_words` on the very
  same tables);
* **identical modeled costs** — the cost model prices operation counts,
  not host execution strategy;
* **graceful fallback** — when the pool cannot be used (the executor
  cannot be created or a submit fails) the engine records one
  degradation and counts in process from then on, with the same
  answers.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

import numpy as np

from ..bitset.ops import support_words
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


class ParallelEngine(VectorizedEngine):
    """The vectorized engine with its counting fanned out over threads.

    The GPU choreography maps onto host hardware: the installed bitset
    table is the device-resident table every lane reads, the kernel
    grid is one candidate block per worker, and the calling thread is
    one of the workers. ``workers`` threads count in all: the caller
    plus a pool of ``workers - 1``, created on the first batch of at
    least ``min_parallel`` rows.
    """

    name = "parallel"

    def __init__(self, config, metrics, device: DeviceProperties = TESLA_T10) -> None:
        super().__init__(config, metrics, device)
        self.n_workers = resolve_workers(config.workers)
        self.min_parallel = MIN_PARALLEL_CANDIDATES
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_broken = False  # also set by close(): never start threads again
        self.metrics.registry.set_gauge("parallel.workers", self.n_workers)

    @property
    def in_process(self) -> bool:
        """Whether the engine has (so far) run without a worker pool."""
        return self._pool is None

    def _submit(self, words, rows, base, blocks) -> Optional[list]:
        """Futures counting ``blocks`` on the pool; None means "count in process".

        A failure to create the pool or to submit (an injected
        ``pool_death`` included) shuts the pool down and records one
        degradation; domain errors (``BitsetError``/``MiningError``)
        propagate unchanged.
        """
        if self._pool_broken or not blocks:
            return None
        try:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    self.n_workers - 1, thread_name_prefix="repro-parallel"
                )
            fault_point("parallel.submit", tiles=len(blocks) + 1)
            return [self._pool.submit(support_words, words, rows[a:b], base) for a, b in blocks]
        except (BitsetError, MiningError):
            raise
        except Exception as exc:
            self.close()
            self.metrics.add_counter("parallel.pool_failures", 1)
            record_degradation(
                self.metrics.registry,
                site="parallel.submit",
                from_mode="pool",
                to_mode="in_process",
                reason=f"{type(exc).__name__}: {exc}",
                workers=self.n_workers,
            )
            return None

    # -- the executor hook ------------------------------------------------------

    def _count(
        self, words: np.ndarray, rows: np.ndarray, base: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Count one block per worker when the batch is large enough, else in process."""
        n = rows.shape[0]
        n_blocks = max(1, min(self.n_workers, n)) if n >= self.min_parallel else 1
        cuts = [(n * i) // n_blocks for i in range(n_blocks + 1)]
        blocks = list(zip(cuts[:-1], cuts[1:]))
        futures = self._submit(words, rows, base, blocks[1:])
        dispatched = futures is not None
        if futures is None:
            supports = support_words(words, rows, base)
        else:
            supports = np.empty(n, dtype=np.int64)
            supports[: cuts[1]] = support_words(words, rows[: cuts[1]], base)
            for (start, stop), future in zip(blocks[1:], futures):
                supports[start:stop] = future.result()
        self.metrics.add_counter("parallel.tiles", len(blocks))
        # one launch may count several tables (a hybrid batch's dense
        # and mixed groups): its span sums them
        sp = current_span()
        seen = getattr(sp, "attrs", {})
        sizes = seen.get("tile_candidates", []) + [stop - start for start, stop in blocks]
        sp.set(
            workers=self.n_workers,
            tiles=seen.get("tiles", 0) + len(blocks),
            tile_candidates=sizes[:16],
            dispatched=seen.get("dispatched", False) or dispatched,
        )
        return supports

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Shut the pool down and join its threads; later counts run in process."""
        self._pool_broken = True
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def finalize(self) -> None:
        super().finalize()
        self.metrics.registry.set_gauge(
            "parallel.in_process", 0 if self._pool is not None else 1
        )
        self.close()
