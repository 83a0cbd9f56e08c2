"""The mining service facade: registry + cache + scheduler in one API.

:class:`MiningService` is the long-lived, concurrent counterpart of
:func:`repro.core.api.mine`. A query names a *registered dataset*
instead of passing a database, and the service:

1. resolves the dataset through the :class:`DatasetRegistry` (loading
   and pinning its vertical bitset matrix on first touch);
2. normalizes the threshold to an absolute count and the options to a
   canonical cache key;
3. answers from the :class:`ResultCache` when a cached run at an
   equal-or-looser threshold covers the query (exact by
   anti-monotonicity);
4. otherwise schedules a cold mine on the worker pool, coalescing with
   any identical in-flight query, and caches the result.

``algorithm="auto"`` picks the miner from the dataset's
characterization profile (Heaton, arXiv:1701.09042: engine choice
should follow dataset characteristics): dense attribute-value data
goes to the bitset pipeline, sparse market-basket data to tidset
Eclat. All registered algorithms mine identical itemsets, so the
choice affects latency, never answers.

Every stage emits spans and ``service.*`` metrics through
:mod:`repro.obs`.
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
from dataclasses import dataclass, replace
from functools import partial
from typing import Dict, Hashable, Optional

from .._validation import check_support
from ..bitset.hybrid import Table
from ..core.api import ALGORITHMS
from ..core.gpapriori import generation1_table
from ..core.request import MiningRequest
from ..core.sharding import ShardPlan
from ..datasets.characterize import DatasetProfile
from ..errors import (
    DeviceMemoryError,
    MiningError,
    ServiceError,
    StoreError,
    WorkerCrashError,
)
from ..obs import span
from ..obs.logging import get_logger, log_event
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import Tracer, current_tracer
from ..store import ArtifactStore
from .cache import ResultCache
from .flightrec import FlightRecorder, QueryRecord, now_epoch
from .registry import DatasetEntry, DatasetRegistry
from .retry import RetryPolicy, record_degradation
from .scheduler import QueryScheduler, check_timeout

__all__ = ["MiningService", "QueryResponse", "choose_algorithm"]

logger = get_logger("service")

DENSITY_AUTO_THRESHOLD = 0.05
"""Density above which ``algorithm="auto"`` picks the bitset pipeline.

Dense attribute-value datasets (chess ~0.49, pumsb, accidents) amortize
the fixed-width bitset rows; below it the rows are mostly zero words
and tidset Eclat does less work per intersection.
"""


def choose_algorithm(profile: DatasetProfile) -> str:
    """Characterization-driven algorithm choice for ``algorithm="auto"``."""
    return "gpapriori" if profile.density >= DENSITY_AUTO_THRESHOLD else "eclat"


@dataclass(frozen=True)
class QueryResponse:
    """One answered query: the result plus serving metadata."""

    result: "object"  # MiningResult; untyped to keep dataclass repr light
    dataset: str
    algorithm: str
    source: str
    """How the answer was produced: ``"cold"`` (mined now),
    ``"coalesced"`` (attached to an identical in-flight mine),
    ``"cache"`` (exact-threshold cache hit), or ``"cache_filtered"``
    (projected down from a looser cached run)."""

    abs_support: int
    elapsed_seconds: float

    def as_dict(self, include_metrics: bool = True) -> Dict:
        """JSON-ready form (the HTTP response body)."""
        return {
            "dataset": self.dataset,
            "algorithm": self.algorithm,
            "source": self.source,
            "abs_support": self.abs_support,
            "elapsed_seconds": self.elapsed_seconds,
            "result": self.result.to_dict(include_metrics=include_metrics),
        }


# options the service controls itself and refuses from callers: the
# Python-object options ("config", "device", "table", "balancer"; the
# pinned tables belong to the registry, clients pick layout= instead)
# and "faults" (chaos plans come from the operator's env knob, never
# from a client of a shared service)
_RESERVED_OPTIONS = ("balancer", "config", "device", "faults", "table")


class MiningService:
    """Long-running mining frontend over registered datasets.

    Parameters
    ----------
    workers / queue_depth:
        Worker-pool size and admission-queue bound of the
        :class:`QueryScheduler`.
    cache_bytes / cache_ttl:
        Result-cache byte budget and entry lifetime.
    registry_bytes:
        Resident-byte budget of the dataset registry (LRU eviction).
    device_budget_bytes:
        Per-dataset device-memory budget; datasets whose pinned matrix
        exceeds it are shard-planned at load time and mined
        out-of-core.
    metrics:
        Externally supplied :class:`MetricsRegistry`; by default the
        service creates one shared by registry, cache, and scheduler.
    slow_query_ms:
        When set, any query slower than this threshold emits a
        ``query.slow`` structured log line at WARNING.
    flight_capacity:
        How many completed queries the flight recorder retains.
    retry_policy:
        The :class:`~repro.service.retry.RetryPolicy` governing every
        transient-failure surface: worker crashes retry up to its
        ``max_attempts``, device OOM retries once and then degrades to
        a sharded mine under a halved memory budget. Defaults to a
        policy with 3 attempts and 50 ms base backoff.
    layout / dense_threshold:
        Default vertical layout for GPApriori queries, forwarded to
        the :class:`DatasetRegistry` (which pins the hybrid
        classification at load time) and folded into each query's
        config unless the query sets ``layout=`` itself.
    devices:
        Default fleet size folded into ``engine="multigpu"`` queries
        that do not set ``devices=`` themselves (``0`` keeps the
        engine's own default, the four-device S1070).
    store_dir:
        When set, an :class:`~repro.store.ArtifactStore` rooted there
        backs the registry: stored artifacts pin via ``numpy.memmap``
        (zero re-parse), budget evictions spill to disk, and any
        result-cache snapshot in the store is replayed at startup
        (warm start). A corrupt snapshot is logged and ignored — the
        service starts cold rather than trusting damaged state.
    snapshot_on_close:
        Snapshot the result cache into the store on ``close()`` so the
        next boot serves warm answers. Requires ``store_dir``.
    maintenance_interval:
        Seconds between background maintenance ticks (TTL sweep of the
        result cache, so an idle server still releases expired bytes).
        ``None`` disables the thread; sweeps then only happen inside
        ``lookup()``/``store()``/``stats()``.
    """

    def __init__(
        self,
        workers: int = 4,
        queue_depth: int = 32,
        cache_bytes: Optional[int] = 64 * 1024 * 1024,
        cache_ttl: Optional[float] = None,
        registry_bytes: Optional[int] = None,
        device_budget_bytes: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        slow_query_ms: Optional[float] = None,
        flight_capacity: int = 64,
        retry_policy: Optional[RetryPolicy] = None,
        layout: str = "dense",
        dense_threshold: Optional[float] = None,
        devices: int = 0,
        store_dir: Optional[str] = None,
        snapshot_on_close: bool = False,
        maintenance_interval: Optional[float] = 30.0,
    ) -> None:
        if snapshot_on_close and store_dir is None:
            raise ServiceError("snapshot_on_close requires store_dir")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.store = (
            ArtifactStore(store_dir, metrics=self.metrics)
            if store_dir is not None
            else None
        )
        self.registry = DatasetRegistry(
            budget_bytes=registry_bytes,
            device_budget_bytes=device_budget_bytes,
            metrics=self.metrics,
            layout=layout,
            dense_threshold=dense_threshold,
            store=self.store,
            on_invalidate=self._invalidate_dataset,
        )
        self.cache = ResultCache(
            budget_bytes=cache_bytes, ttl_seconds=cache_ttl, metrics=self.metrics
        )
        self.scheduler = QueryScheduler(
            workers=workers, queue_depth=queue_depth, metrics=self.metrics
        )
        self.flight = FlightRecorder(capacity=flight_capacity)
        self.retry = retry_policy if retry_policy is not None else RetryPolicy()
        self.slow_query_ms = slow_query_ms
        self.devices = devices
        self.snapshot_on_close = snapshot_on_close
        self._query_ids = itertools.count(1)
        self._preload_requested = False
        self._preload_done = False
        self._closed = False
        if self.store is not None:
            self._restore_snapshot()
        self._maint_stop = threading.Event()
        self._maint_thread: Optional[threading.Thread] = None
        if maintenance_interval is not None and maintenance_interval > 0:
            self._maint_thread = threading.Thread(
                target=self._maintenance_loop,
                args=(float(maintenance_interval),),
                name="service-maintenance",
                daemon=True,
            )
            self._maint_thread.start()

    # -- datasets -----------------------------------------------------------

    def register_dataset(self, name: str, source, provenance: str = "file") -> None:
        """Register a dataset (database or lazy loader) under ``name``."""
        self.registry.add(name, source, provenance=provenance)

    def preload(self, *names: str) -> None:
        """Eagerly load datasets (all registered ones when no names)."""
        self._preload_requested = True
        self._preload_done = False
        for name in names or self.registry.names():
            self.registry.get(name)
        self._preload_done = True

    # -- queries ------------------------------------------------------------

    def query(
        self,
        /,
        dataset: str,
        min_support,
        algorithm: str = "gpapriori",
        max_k: Optional[int] = None,
        timeout: Optional[float] = None,
        **options,
    ) -> QueryResponse:
        """Answer one mining query (cache-first, scheduled when cold).

        Parameters mirror :func:`repro.core.api.mine` except the first
        argument is a registered dataset *name*, ``algorithm`` may also
        be ``"auto"``, and ``timeout`` bounds this caller's wait in
        seconds. The query is checked by
        :meth:`~repro.core.request.MiningRequest.build` inside the
        query's traced span, so the flight recorder sees rejections
        too. Raises :class:`~repro.errors.DatasetError` for unknown
        datasets, :class:`~repro.errors.ServiceOverloadError` when the
        admission queue is full, and
        :class:`~repro.errors.QueryTimeoutError` on a missed deadline.
        """
        if self._closed:
            raise ServiceError("service is closed")
        t0 = time.perf_counter()
        query_id = f"q{next(self._query_ids):06d}"
        started_at = now_epoch()
        # Each query runs under its own tracer so the flight recorder
        # retains exactly this query's span tree; finished spans are
        # grafted back into any outer tracer (CLI --trace) afterwards.
        # The scheduler's workers re-activate the submitting tracer, so
        # a cold mine's spans land here even though it runs on a pooled
        # thread.
        outer = current_tracer()
        query_tracer = Tracer()
        counters = self.metrics.watch_counters()
        self.metrics.inc("service.queries")
        state: Dict = {
            "algorithm": algorithm,
            "source": None,
            "abs_support": None,
            "max_k": max_k,
            "error": None,
        }
        try:
            with query_tracer.activate():
                with span(
                    "service.query",
                    query_id=query_id,
                    dataset=dataset,
                    algorithm=algorithm,
                ) as query_span:
                    entry = self.registry.get(dataset)
                    if isinstance(algorithm, str) and algorithm.lower() == "auto":
                        algorithm = state["algorithm"] = choose_algorithm(entry.profile)
                        self.metrics.inc(f"service.auto.{algorithm}")
                    request = MiningRequest.build(
                        min_support,
                        algorithm=algorithm,
                        dataset=dataset,
                        max_k=max_k,
                        options=options,
                        reserved=_RESERVED_OPTIONS,
                        defaults=partial(self._serve_defaults, entry),
                    )
                    algorithm = state["algorithm"] = request.algorithm
                    check_timeout(timeout)
                    abs_support = check_support(
                        min_support, entry.db.n_transactions, MiningError
                    )
                    state["abs_support"] = abs_support
                    key = request.signature()
                    cached = self.cache.lookup(key, abs_support, max_k)
                    if cached is not None:
                        result, kind = cached
                        source = "cache" if kind == "hit" else "cache_filtered"
                    else:
                        # A dead worker is transient: the query itself
                        # was fine, so resubmit under the retry policy.
                        result, coalesced = self.retry.call(
                            lambda: self.scheduler.execute(
                                key=(key, abs_support, max_k),
                                fn=lambda: self._mine_cold(
                                    entry, request, abs_support, key
                                ),
                                timeout=timeout,
                            ),
                            retry_on=(WorkerCrashError,),
                            metrics=self.metrics,
                            site="scheduler.worker",
                        )
                        source = "coalesced" if coalesced else "cold"
                    state["source"] = source
                    elapsed = time.perf_counter() - t0
                    query_span.set(source=source, abs_support=abs_support)
            self.metrics.inc(f"service.source.{source}")
            self.metrics.observe("service.query.seconds", elapsed)
            return QueryResponse(
                result=result,
                dataset=dataset,
                algorithm=algorithm,
                source=source,
                abs_support=abs_support,
                elapsed_seconds=elapsed,
            )
        except BaseException as exc:
            state["error"] = exc
            raise
        finally:
            self._finish_query(
                query_id=query_id,
                query_tracer=query_tracer,
                outer=outer,
                dataset=dataset,
                state=state,
                options=options,
                started_at=started_at,
                elapsed=time.perf_counter() - t0,
                counters=counters,
            )

    # -- internals ----------------------------------------------------------

    def _finish_query(
        self,
        query_id: str,
        query_tracer: Tracer,
        outer,
        dataset: str,
        state: Dict,
        options: Dict,
        started_at: float,
        elapsed: float,
        counters: Dict[str, int],
    ) -> None:
        """Telemetry fan-out after a query: flight record + log lines."""
        delta = self.metrics.unwatch_counters(counters)
        spans = [s.to_dict() for s in query_tracer.finished()]
        if outer is not None:
            outer.adopt(spans)
        error = state["error"]
        self.flight.record(
            QueryRecord(
                query_id=query_id,
                trace_id=query_tracer.trace_id,
                dataset=dataset,
                algorithm=state["algorithm"],
                status="ok" if error is None else "error",
                source=state["source"],
                abs_support=state["abs_support"],
                max_k=state["max_k"],
                options=dict(options),
                started_at=started_at,
                elapsed_seconds=elapsed,
                error=None if error is None else str(error),
                error_type=None if error is None else type(error).__name__,
                spans=spans,
                metrics_delta=delta,
            )
        )
        duration_ms = elapsed * 1000.0
        fields = {
            "query_id": query_id,
            "trace_id": query_tracer.trace_id,
            "dataset": dataset,
            "algorithm": state["algorithm"],
            "source": state["source"],
            "abs_support": state["abs_support"],
            "duration_ms": round(duration_ms, 3),
        }
        if error is not None:
            log_event(
                logger,
                logging.WARNING,
                "query.error",
                error=str(error),
                error_type=type(error).__name__,
                **fields,
            )
            return
        log_event(logger, logging.INFO, "query", **fields)
        if self.slow_query_ms is not None and duration_ms > self.slow_query_ms:
            self.metrics.inc("service.slow_queries")
            log_event(
                logger,
                logging.WARNING,
                "query.slow",
                slow_query_ms=self.slow_query_ms,
                **fields,
            )

    def _serve_defaults(self, entry: DatasetEntry, fields: Dict) -> Dict:
        """Fold the serve-level defaults into a query's config fields.

        A dataset flagged out-of-core at load time mines under the
        device budget unless the query set its own sharding; the
        registry's layout and the serve-level fleet size apply unless
        the query set its own. Folded in before the cache key is
        computed, so spelled-out and defaulted queries share one entry.
        """
        fields = dict(fields)
        if entry.shard_plan is not None and "shards" not in fields:
            fields.setdefault("memory_budget_bytes", self.registry.device_budget_bytes)
        if "layout" not in fields and self.registry.layout != "dense":
            fields["layout"] = self.registry.layout
            if self.registry.dense_threshold is not None:
                fields.setdefault("dense_threshold", self.registry.dense_threshold)
        if self.devices and fields.get("engine") == "multigpu":
            fields.setdefault("devices", self.devices)
        return fields

    def _mine_cold(
        self,
        entry: DatasetEntry,
        request: MiningRequest,
        abs_support: int,
        key: Hashable,
    ):
        """One scheduled cold mine; runs on a worker thread.

        Device OOM gets one in-place retry (transient pressure — e.g.
        another query's shard slab in flight), then the degradation
        ladder: re-mine sharded under a halved memory budget, by
        complete intersection. Sharded supports are additive over
        disjoint tid ranges and both plans count the same supports, so
        the degraded answer is bit-identical, just slower.
        """
        self.metrics.inc("service.cold_mines")
        t0 = time.perf_counter()
        with span(
            "service.mine_cold",
            dataset=entry.name,
            algorithm=request.algorithm,
            abs_support=abs_support,
        ) as cold_span:
            table = None
            if request.config is not None:
                table = generation1_table(entry.db, request.config, entry.matrix, entry.hybrid)
            try:
                result = self.retry.call(
                    lambda: self._run_mine(entry, request, abs_support, table),
                    retry_on=(DeviceMemoryError,),
                    metrics=self.metrics,
                    site="device_memory",
                    attempts=2,
                )
            except DeviceMemoryError as exc:
                if table is None:
                    raise
                result = self._mine_degraded(entry, request, abs_support, table, exc)
                cold_span.set(degraded=True)
        self.cache.store(key, result, abs_support, request.max_k)
        self.metrics.observe("service.cold_seconds", time.perf_counter() - t0)
        return result

    def _run_mine(
        self,
        entry: DatasetEntry,
        request: MiningRequest,
        abs_support: int,
        table: Optional[Table],
    ):
        """Mine ``request`` on ``entry``; a GPApriori run installs ``table``."""
        kwargs = request.runner_kwargs()
        if table is not None:
            kwargs["table"] = table
        return ALGORITHMS[request.algorithm].runner(entry.db, abs_support, **kwargs)

    def _mine_degraded(
        self,
        entry: DatasetEntry,
        request: MiningRequest,
        abs_support: int,
        table: Table,
        cause: DeviceMemoryError,
    ):
        """Re-mine ``table`` under a halved, sharded memory budget after OOM.

        The degraded run uses ``plan="complete"``: the paper's answer to
        the device-memory wall, and the only plan a sharded run takes,
        so an equivalence-class query drops its prefix cache here.
        """
        config = request.config
        base_budget = (
            config.memory_budget_bytes
            or self.registry.device_budget_bytes
            or table.nbytes
        )
        # Halve the budget, but never below the smallest plan the shard
        # math can build for this table: a degraded mine must stay feasible.
        halved = max(ShardPlan.min_budget(table), int(base_budget) // 2)
        record_degradation(
            self.metrics,
            site="service.mine_cold",
            from_mode="sharded" if config.sharded else config.engine,
            to_mode="sharded",
            reason=f"{type(cause).__name__}: {cause}",
            dataset=entry.name,
            memory_budget_bytes=halved,
        )
        degraded = replace(
            request, config=config.with_(memory_budget_bytes=halved, plan="complete")
        )
        return self._run_mine(entry, degraded, abs_support, table)

    # -- persistence / maintenance ------------------------------------------

    def _invalidate_dataset(self, name: str) -> None:
        """Drop every cached result keyed to a dataset (registry hook)."""
        dropped = self.cache.invalidate(
            lambda key: isinstance(key, tuple) and bool(key) and key[0] == name
        )
        if dropped:
            log_event(
                logger,
                logging.INFO,
                "cache.invalidated",
                dataset=name,
                entries=dropped,
            )

    def _restore_snapshot(self) -> None:
        """Warm-start the result cache from the store's snapshot."""
        try:
            restored = self.store.load_snapshot(self.cache)
        except StoreError as exc:
            log_event(
                logger,
                logging.WARNING,
                "store.snapshot_corrupt",
                error=str(exc),
                error_type=type(exc).__name__,
            )
            return
        if restored:
            log_event(
                logger,
                logging.INFO,
                "store.snapshot_restored",
                entries=restored,
                path=self.store.snapshot_path,
            )

    def _maintenance_loop(self, interval: float) -> None:
        """Periodic idle-time upkeep (daemon thread).

        The TTL sweep here is the fix for the lazy-expiry bug: without
        it, a serve process that stops receiving queries pins expired
        cache bytes forever, because expiry was only ever checked
        inside ``lookup()``/``store()``.
        """
        while not self._maint_stop.wait(interval):
            try:
                dropped = self.cache.sweep()
                self.metrics.inc("service.maintenance_ticks")
                if dropped:
                    log_event(
                        logger,
                        logging.INFO,
                        "cache.swept",
                        entries=dropped,
                    )
            except Exception:  # pragma: no cover - upkeep must never die
                logger.exception("maintenance tick failed")

    # -- introspection / lifecycle ------------------------------------------

    def ready(self) -> Dict:
        """Readiness probe state (distinct from liveness).

        ``ready`` is False while the service is closed, a worker
        thread has died, or a requested preload has not completed —
        the conditions under which a load balancer should stop
        routing here even though the process is alive.
        """
        scheduler_alive = self.scheduler.healthy()
        preload_pending = self._preload_requested and not self._preload_done
        return {
            "ready": not self._closed and scheduler_alive and not preload_pending,
            "closed": self._closed,
            "scheduler_alive": scheduler_alive,
            "preload_pending": preload_pending,
            "datasets_registered": len(self.registry.names()),
            "datasets_resident": len(self.registry.resident()),
        }

    def stats(self) -> Dict:
        """One JSON-ready snapshot of every service component."""
        return {
            "registry": self.registry.stats(),
            "cache": self.cache.stats(),
            "scheduler": self.scheduler.stats(),
            "flight": self.flight.stats(),
            "store": self.store.stats() if self.store is not None else None,
            "metrics": self.metrics.snapshot(),
        }

    def close(self) -> None:
        """Drain the worker pool and stop accepting queries.

        With ``snapshot_on_close`` the result cache is persisted to the
        store *after* the drain, so results from queries in flight at
        shutdown make it into the snapshot the next boot replays.
        """
        if self._closed:
            return
        self._closed = True
        self._maint_stop.set()
        if self._maint_thread is not None:
            self._maint_thread.join(timeout=5.0)
        self.scheduler.close()
        if self.snapshot_on_close and self.store is not None:
            try:
                saved = self.store.save_snapshot(self.cache)
                log_event(
                    logger,
                    logging.INFO,
                    "store.snapshot_saved",
                    entries=saved,
                    path=self.store.snapshot_path,
                )
            except OSError as exc:  # pragma: no cover - disk-full etc.
                log_event(
                    logger,
                    logging.WARNING,
                    "store.snapshot_failed",
                    error=str(exc),
                )

    def __enter__(self) -> "MiningService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MiningService(datasets={len(self.registry.names())}, "
            f"workers={self.scheduler.n_workers}, closed={self._closed})"
        )
