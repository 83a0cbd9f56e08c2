"""Bounded-queue worker pool with query coalescing and deadlines.

Admission control and batching for the mining service:

* a **bounded queue** — when it is full, :meth:`QueryScheduler.execute`
  rejects immediately with :class:`~repro.errors.ServiceOverloadError`
  instead of letting latency grow without bound (the HTTP frontend
  maps it to 429);
* **coalescing** — concurrent queries with the same canonical key
  share one execution: the first caller enqueues, the rest attach to
  the in-flight slot and wake on the same result (a thundering herd of
  identical cold queries costs one mining pass);
* **deadlines** — each caller waits at most its own ``timeout``; a
  missed deadline raises :class:`~repro.errors.QueryTimeoutError`. A
  running mining pass is not interruptible, but a queued query whose
  waiters have all abandoned it is *cancelled* — workers skip it at
  dequeue instead of mining for nobody.

Workers re-activate the submitting context's tracer
(:func:`repro.obs.current_tracer` does not cross thread boundaries on
its own), so spans from pooled executions land in the same trace as
the frontend that requested them.
"""

from __future__ import annotations

import copy
import logging
import queue
import threading
import time
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

from .._validation import check_positive_int
from ..errors import QueryTimeoutError, ServiceError, ServiceOverloadError
from ..faults.injection import fault_point
from ..obs import span
from ..obs.logging import get_logger, log_event
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import current_tracer

__all__ = ["QueryScheduler", "check_timeout"]

logger = get_logger("scheduler")

CLOSE_TIMEOUT_SECONDS = 5.0
"""Default bound on :meth:`QueryScheduler.close`: sentinel delivery and
worker joins together never block longer than this."""


def _clone_exception(error: BaseException) -> BaseException:
    """A per-waiter copy of a shared execution error.

    Coalesced waiters all observe the same ``_Inflight.error``;
    re-raising the *same object* from several threads races on
    ``__traceback__`` mutation and grows chained tracebacks across
    waiters. A shallow copy (class + args + ``__dict__``) gives each
    waiter a fresh raise while keeping type and message intact. Falls
    back to the shared object when the exception resists copying.
    """
    try:
        clone = copy.copy(error)
    except Exception:
        return error
    if type(clone) is not type(error) or clone is error:
        return error
    clone.__traceback__ = None
    return clone


class _Inflight:
    """One scheduled execution and everyone waiting on it."""

    __slots__ = (
        "key",
        "fn",
        "done",
        "result",
        "error",
        "waiters",
        "started",
        "cancelled",
        "tracer",
        "enqueued_at",
    )

    def __init__(self, key: Hashable, fn: Callable[[], Any], tracer) -> None:
        self.key = key
        self.fn = fn
        self.done = threading.Event()
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.waiters = 1
        self.started = False
        self.cancelled = False
        self.tracer = tracer
        self.enqueued_at = time.monotonic()


def check_timeout(timeout: Optional[float]) -> None:
    """Refuse a caller deadline that is not positive seconds or ``None``."""
    if timeout is not None and (
        isinstance(timeout, bool)
        or not isinstance(timeout, (int, float))
        or not 0 < timeout <= threading.TIMEOUT_MAX
    ):
        raise ServiceError(f"timeout must be positive seconds or None, got {timeout!r}")


class QueryScheduler:
    """Worker pool executing coalesced, deadline-bounded callables."""

    def __init__(
        self,
        workers: int = 4,
        queue_depth: int = 32,
        metrics: Optional[MetricsRegistry] = None,
        name: str = "mining-worker",
    ) -> None:
        check_positive_int(workers, "workers", ServiceError)
        check_positive_int(queue_depth, "queue_depth", ServiceError)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._queue: "queue.Queue[Optional[_Inflight]]" = queue.Queue(
            maxsize=queue_depth
        )
        self._lock = threading.Lock()
        self._inflight: Dict[Hashable, _Inflight] = {}
        self._closed = False
        self._workers = [
            threading.Thread(target=self._worker, name=f"{name}-{i}", daemon=True)
            for i in range(workers)
        ]
        for t in self._workers:
            t.start()

    @property
    def n_workers(self) -> int:
        return len(self._workers)

    # -- submission ---------------------------------------------------------

    def execute(
        self,
        key: Hashable,
        fn: Callable[[], Any],
        timeout: Optional[float] = None,
    ) -> Tuple[Any, bool]:
        """Run ``fn`` (or join an identical in-flight run) and wait.

        Returns ``(result, coalesced)`` where ``coalesced`` is True
        when this caller attached to an execution another caller
        started. Raises :class:`ServiceOverloadError` if the queue is
        full, :class:`QueryTimeoutError` if ``timeout`` elapses first,
        and re-raises whatever ``fn`` raised otherwise.
        """
        check_timeout(timeout)
        with self._lock:
            if self._closed:
                raise ServiceError("scheduler is closed")
            inflight = self._inflight.get(key)
            if inflight is not None:
                inflight.waiters += 1
                coalesced = True
                self.metrics.inc("service.coalesced")
            else:
                inflight = _Inflight(key, fn, current_tracer())
                coalesced = False
                try:
                    self._queue.put_nowait(inflight)
                except queue.Full:
                    self.metrics.inc("service.rejected")
                    log_event(
                        logger,
                        logging.WARNING,
                        "scheduler.overload",
                        queue_depth=self._queue.maxsize,
                    )
                    raise ServiceOverloadError(
                        f"admission queue full ({self._queue.maxsize} queued); "
                        "retry later"
                    ) from None
                self._inflight[key] = inflight
                self.metrics.inc("service.scheduled")
            self.metrics.set_gauge("service.queue_depth", self._queue.qsize())
            self.metrics.set_gauge("service.inflight", len(self._inflight))
        try:
            finished = inflight.done.wait(timeout)
        except BaseException:
            self._abandon(inflight)
            raise
        if not finished:
            self._abandon(inflight)
            self.metrics.inc("service.timeouts")
            log_event(
                logger,
                logging.WARNING,
                "scheduler.timeout",
                timeout_seconds=timeout,
                started=inflight.started,
            )
            raise QueryTimeoutError(
                f"query missed its {timeout:.3f}s deadline (still "
                f"{'running' if inflight.started else 'queued'})"
            )
        if inflight.error is not None:
            original = inflight.error
            clone = _clone_exception(original)
            if clone is original:
                raise original
            raise clone from original
        return inflight.result, coalesced

    def _abandon(self, inflight: _Inflight) -> None:
        """Detach one waiter; cancel the run if it never started and
        nobody else is waiting."""
        with self._lock:
            inflight.waiters -= 1
            if inflight.waiters <= 0 and not inflight.started:
                inflight.cancelled = True
                # future identical queries must start fresh
                if self._inflight.get(inflight.key) is inflight:
                    del self._inflight[inflight.key]
                self.metrics.inc("service.cancelled")

    # -- workers ------------------------------------------------------------

    def _worker(self) -> None:
        while True:
            inflight = self._queue.get()
            if inflight is None:
                self._queue.task_done()
                return
            with self._lock:
                if inflight.cancelled:
                    self._queue.task_done()
                    self.metrics.inc("service.skipped")
                    continue
                inflight.started = True
            self.metrics.observe(
                "service.queue_wait_seconds", time.monotonic() - inflight.enqueued_at
            )
            t0 = time.monotonic()
            try:
                if inflight.tracer is not None:
                    with inflight.tracer.activate():
                        with span("service.execute", coalesced_waiters=inflight.waiters):
                            inflight.result = self._run_inflight(inflight)
                else:
                    inflight.result = self._run_inflight(inflight)
            except BaseException as exc:  # delivered to every waiter
                inflight.error = exc
                self.metrics.inc("service.errors")
                log_event(
                    logger,
                    logging.WARNING,
                    "scheduler.execute_error",
                    error=str(exc),
                    error_type=type(exc).__name__,
                )
            finally:
                with self._lock:
                    if self._inflight.get(inflight.key) is inflight:
                        del self._inflight[inflight.key]
                    inflight_now = len(self._inflight)
                self.metrics.observe(
                    "service.exec_seconds", time.monotonic() - t0
                )
                self.metrics.set_gauge("service.queue_depth", self._queue.qsize())
                self.metrics.set_gauge("service.inflight", inflight_now)
                inflight.done.set()
                self._queue.task_done()

    def _run_inflight(self, inflight: _Inflight) -> Any:
        """Execute one query body (the chaos harness's worker site)."""
        fault_point("scheduler.worker", waiters=inflight.waiters)
        return inflight.fn()

    # -- lifecycle ----------------------------------------------------------

    def _fail_pending(self) -> int:
        """Fail every queued-but-unstarted query with a typed error.

        Without this, ``close()`` strands them: workers exit on the
        sentinel, the queued ``_Inflight.done`` is never set, and a
        caller blocked in ``execute(..., timeout=None)`` hangs forever.
        Sentinels pulled while draining are re-enqueued. Returns the
        number of queries failed.
        """
        failed = 0
        sentinels = 0
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            self._queue.task_done()
            if item is None:
                sentinels += 1
                continue
            with self._lock:
                if self._inflight.get(item.key) is item:
                    del self._inflight[item.key]
            item.error = ServiceError("scheduler closed")
            item.done.set()
            failed += 1
        for _ in range(sentinels):
            try:
                self._queue.put_nowait(None)
            except queue.Full:  # pragma: no cover - drain made room above
                break
        if failed:
            self.metrics.inc("service.drained_on_close", failed)
            log_event(
                logger,
                logging.WARNING,
                "scheduler.drained_on_close",
                failed=failed,
            )
        return failed

    def close(self, wait: bool = True, timeout: float = CLOSE_TIMEOUT_SECONDS) -> None:
        """Stop accepting work and shut the worker pool down.

        Bounded: queued queries are failed (not stranded), sentinel
        delivery never blocks on a full queue — the combination a dead
        worker plus full queue used to deadlock — and worker joins
        share the remaining ``timeout``. Workers that cannot be reached
        within the deadline are abandoned to their daemon flag.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        deadline = time.monotonic() + timeout
        self._fail_pending()
        delivered = 0
        while delivered < len(self._workers):
            try:
                self._queue.put_nowait(None)
                delivered += 1
            except queue.Full:
                # No room for a sentinel. Live workers free slots as
                # they consume sentinels; with dead workers and a full
                # queue (the old deadlock) the deadline bounds the wait.
                if self._fail_pending() == 0:
                    if time.monotonic() >= deadline:
                        break
                    time.sleep(0.005)
        if wait:
            for t in self._workers:
                t.join(max(0.0, deadline - time.monotonic()))
        # Anything that slipped into the queue mid-shutdown fails too.
        self._fail_pending()

    def __enter__(self) -> "QueryScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def healthy(self) -> bool:
        """True while open and every worker thread is still alive."""
        with self._lock:
            if self._closed:
                return False
        return all(t.is_alive() for t in self._workers)

    def stats(self) -> Dict:
        with self._lock:
            return {
                "workers": len(self._workers),
                "queue_depth": self._queue.maxsize,
                "queued": self._queue.qsize(),
                "inflight": len(self._inflight),
                "scheduled": self.metrics.counter("service.scheduled"),
                "coalesced": self.metrics.counter("service.coalesced"),
                "rejected": self.metrics.counter("service.rejected"),
                "timeouts": self.metrics.counter("service.timeouts"),
            }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"QueryScheduler(workers={len(self._workers)}, "
            f"queue_depth={self._queue.maxsize})"
        )
