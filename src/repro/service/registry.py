"""Dataset registry: load once, pin the vertical layout, evict by bytes.

Grahne & Zhu's secondary-memory miner (cs/0405069) motivates keeping
the expensive on-disk -> vertical conversion out of the per-query
path; before this module every ``mine()`` call re-transposed the
database into its :class:`~repro.bitset.bitset.BitsetMatrix`. The
registry does that work once per dataset and hands every query the
same pinned, immutable matrix.

Each entry also carries the dataset's structural characterization
(:func:`~repro.datasets.characterize.profile_database`) — Heaton
(arXiv:1701.09042) shows algorithm choice should be driven by dataset
characteristics, and the service's ``algorithm="auto"`` mode reads the
profile at query time — plus a :class:`~repro.core.sharding.ShardPlan`
when the matrix exceeds the configured device budget, so out-of-core
datasets are planned at load time, not per query.

Entries are LRU-evicted by *resident bytes* (CSR storage plus pinned
matrix) against ``budget_bytes``; the entry being requested is never
evicted, so a single over-budget dataset still serves.

With ``store=`` (an :class:`~repro.store.ArtifactStore`), the registry
becomes persistence-aware: a dataset whose artifact is in the store is
pinned straight from its memory map — zero FIMI re-parse, zero
re-transpose — and budget evictions *spill* the victim to the store
(build once, then the artifact answers every future reload). Entries
report their provenance (``source``: ``store`` / ``file`` /
``synthetic``, plus ``mmap``) through ``/v1/datasets``.

Cache-coupling policy: **explicit** ``evict()`` and re-``add()`` fire
the ``on_invalidate`` hook (the operator is saying the dataset's
content may have changed), while **budget** LRU evictions do not — the
source is unchanged, so a reload yields a bit-identical database and
every cached result remains exact. ``tests/service/test_registry_store``
documents both halves.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Union

from ..bitset.bitset import BitsetMatrix
from ..bitset.hybrid import VALID_LAYOUTS, HybridLayout, build_layout
from ..core.sharding import ShardPlan
from ..datasets.characterize import DatasetProfile, profile_database
from ..datasets.transaction_db import TransactionDatabase
from ..errors import DatasetError
from ..obs import span
from ..obs.metrics import MetricsRegistry

__all__ = ["DatasetEntry", "DatasetRegistry"]

DatasetSource = Union[TransactionDatabase, Callable[[], TransactionDatabase]]


@dataclass
class DatasetEntry:
    """One resident dataset: database, pinned matrix, profile, plan."""

    name: str
    db: TransactionDatabase
    matrix: BitsetMatrix
    profile: DatasetProfile
    shard_plan: Optional[ShardPlan] = None
    hybrid: Optional[HybridLayout] = None
    resident_bytes: int = field(default=0)
    source: str = "file"
    mmap: bool = False

    def __post_init__(self) -> None:
        if not self.resident_bytes:
            self.resident_bytes = self.db.nbytes + self.matrix.nbytes
            if self.hybrid is not None:
                self.resident_bytes += self.hybrid.device_bytes

    def as_dict(self) -> Dict:
        """JSON-ready summary for the HTTP ``/v1/datasets`` view."""
        return {
            "name": self.name,
            "n_transactions": self.db.n_transactions,
            "n_items": self.db.n_items,
            "resident_bytes": self.resident_bytes,
            "matrix_bytes": self.matrix.nbytes,
            "source": self.source,
            "mmap": self.mmap,
            "shard_plan": self.shard_plan.as_dict() if self.shard_plan else None,
            "layout": self.hybrid.as_dict() if self.hybrid else None,
            "profile": self.profile.as_dict(),
        }


class DatasetRegistry:
    """Thread-safe, byte-budgeted LRU registry of resident datasets.

    Parameters
    ----------
    budget_bytes:
        Total resident-byte budget across entries (``None`` = no
        eviction). When a load pushes the total over budget, the
        least-recently-used *other* entries are dropped first.
    device_budget_bytes:
        Per-dataset device-memory budget. A dataset whose pinned
        matrix exceeds it gets a precomputed
        :class:`~repro.core.sharding.ShardPlan` and is mined
        out-of-core (the service forwards the budget into the
        GPApriori config).
    metrics:
        Shared :class:`~repro.obs.MetricsRegistry` receiving the
        ``service.registry.*`` counters and gauges.
    layout:
        Vertical layout pinned at load time. ``"dense"`` (the default)
        pins only the bitset matrix. ``"hybrid"``/``"auto"`` also pin
        a :class:`~repro.bitset.hybrid.HybridLayout` classification
        (``"auto"`` only when hybridizing actually saves device bytes)
        that queries with a matching layout reuse instead of
        re-classifying per query.
    dense_threshold:
        Support-density cutoff for the pinned hybrid classification;
        ``None`` uses the storage break-even threshold.
    store:
        Optional :class:`~repro.store.ArtifactStore`. When set, names
        with a stored artifact pin from its memory map instead of the
        registered loader, store-only datasets become servable without
        any ``add()``, and budget evictions spill to the store.
    on_invalidate:
        Hook called (outside the registry lock) with a dataset name
        whenever its content identity may have changed — explicit
        ``evict()`` or re-``add()``. The service wires this to
        result-cache invalidation.
    """

    def __init__(
        self,
        budget_bytes: Optional[int] = None,
        device_budget_bytes: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        layout: str = "dense",
        dense_threshold: Optional[float] = None,
        store=None,
        on_invalidate: Optional[Callable[[str], None]] = None,
    ) -> None:
        if budget_bytes is not None and budget_bytes < 1:
            raise DatasetError(
                f"budget_bytes must be a positive int or None, got {budget_bytes!r}"
            )
        if device_budget_bytes is not None and device_budget_bytes < 1:
            raise DatasetError(
                "device_budget_bytes must be a positive int or None, "
                f"got {device_budget_bytes!r}"
            )
        if layout not in VALID_LAYOUTS:
            raise DatasetError(
                f"layout must be one of {VALID_LAYOUTS}, got {layout!r}"
            )
        if dense_threshold is not None and not 0.0 <= dense_threshold <= 1.0:
            raise DatasetError(
                f"dense_threshold must be in [0, 1] or None, got {dense_threshold!r}"
            )
        self.budget_bytes = budget_bytes
        self.device_budget_bytes = device_budget_bytes
        self.layout = layout
        self.dense_threshold = dense_threshold
        self.store = store
        self.on_invalidate = on_invalidate
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._sources: Dict[str, Callable[[], TransactionDatabase]] = {}
        self._provenance: Dict[str, str] = {}
        self._entries: "OrderedDict[str, DatasetEntry]" = OrderedDict()
        # One build lock per dataset: two concurrent first queries for
        # the same dataset must load it once, while loads of *different*
        # datasets proceed in parallel.
        self._build_locks: Dict[str, threading.Lock] = {}

    # -- registration -------------------------------------------------------

    def add(self, name: str, source: DatasetSource, provenance: str = "file") -> None:
        """Register a dataset under ``name``.

        ``source`` is either a ready :class:`TransactionDatabase` or a
        zero-argument loader called lazily on first access (so a server
        can advertise many datasets and pay only for the ones queried).
        ``provenance`` labels where the bytes come from (``"file"`` /
        ``"synthetic"``) for the ``/v1/datasets`` view. Re-registering
        a name replaces its source, drops any resident entry, and fires
        ``on_invalidate`` — the new source may produce different data,
        so cached results for the name are no longer trustworthy.
        """
        if isinstance(source, TransactionDatabase):
            loader: Callable[[], TransactionDatabase] = lambda db=source: db
        elif callable(source):
            loader = source
        else:
            raise DatasetError(
                f"dataset source must be a TransactionDatabase or a callable, "
                f"got {type(source).__name__}"
            )
        with self._lock:
            replaced = name in self._sources or name in self._entries
            self._sources[name] = loader
            self._provenance[name] = provenance
            self._build_locks.setdefault(name, threading.Lock())
            self._entries.pop(name, None)
            self._publish_gauges()
        if replaced and self.on_invalidate is not None:
            self.on_invalidate(name)

    def names(self) -> list:
        """All servable dataset names (registered or store-held), sorted."""
        stored = set(self.store.names()) if self.store is not None else set()
        with self._lock:
            return sorted(set(self._sources) | stored)

    def resident(self) -> list:
        """Names of currently loaded entries, LRU-first."""
        with self._lock:
            return list(self._entries)

    @property
    def resident_bytes(self) -> int:
        with self._lock:
            return sum(e.resident_bytes for e in self._entries.values())

    # -- access -------------------------------------------------------------

    def get(self, name: str) -> DatasetEntry:
        """The entry for ``name``, loading and pinning it if needed.

        Raises :class:`~repro.errors.DatasetError` for unknown names
        (the HTTP frontend maps that to 404).
        """
        with self._lock:
            entry = self._entries.get(name)
            if entry is not None:
                self._entries.move_to_end(name)
                self.metrics.inc("service.registry.hits")
                return entry
            loader = self._sources.get(name)
            if loader is None and not (self.store is not None and self.store.has(name)):
                stored = self.store.names() if self.store is not None else []
                raise DatasetError(
                    f"unknown dataset {name!r}; servable: "
                    f"{sorted(set(self._sources) | set(stored))}"
                )
            build_lock = self._build_locks.setdefault(name, threading.Lock())
        with build_lock:
            # another thread may have finished the load while we waited
            with self._lock:
                entry = self._entries.get(name)
                if entry is not None:
                    self._entries.move_to_end(name)
                    self.metrics.inc("service.registry.hits")
                    return entry
            entry = self._load(name, loader)
            with self._lock:
                self._entries[name] = entry
                self._entries.move_to_end(name)
                self.metrics.inc("service.registry.loads")
                victims = self._evict_over_budget(keep=name)
                self._publish_gauges()
            # Spilling happens outside the registry lock: a store build
            # CRCs and fsyncs megabytes, and queries for other datasets
            # must not stall behind it.
            for victim in victims:
                self._spill(victim)
            return entry

    def _spill(self, victim: DatasetEntry) -> None:
        """Persist a budget-evicted entry so its next load is an mmap."""
        if self.store is None or victim.mmap:
            return  # mmap entries came *from* the store; nothing to save
        try:
            if not self.store.has(victim.name):
                with span("store.spill", dataset=victim.name):
                    self.store.build(
                        victim.name,
                        victim.db,
                        matrix=victim.matrix,
                        hybrid=victim.hybrid,
                        profile=victim.profile,
                    )
                self.metrics.inc("store.spills")
        except Exception:
            # Spilling is an optimization; a full disk must not turn a
            # routine eviction into a failed query.
            self.metrics.inc("store.spill_failures")

    def _load(
        self, name: str, loader: Optional[Callable[[], TransactionDatabase]]
    ) -> DatasetEntry:
        with span("service.dataset_load", dataset=name) as sp:
            source = self._provenance.get(name, "file")
            mmap = False
            db = matrix = profile = hybrid = None
            if self.store is not None and self.store.has(name):
                # Store-first: the artifact memory-maps straight into the
                # pinned layouts — no re-parse, no re-transpose.
                artifact = self.store.load(name)
                db, matrix, profile = artifact.db, artifact.matrix, artifact.profile
                hybrid = artifact.hybrid
                source, mmap = "store", True
            if db is None:
                if loader is None:
                    raise DatasetError(f"unknown dataset {name!r}")
                db = loader()
                if not isinstance(db, TransactionDatabase):
                    raise DatasetError(
                        f"loader for dataset {name!r} returned "
                        f"{type(db).__name__}, not a TransactionDatabase"
                    )
            if matrix is None:
                with span("transpose", dataset=name, pinned=True):
                    matrix = BitsetMatrix.from_database(db, aligned=True)
            if profile is None:
                with span("service.dataset_profile", dataset=name):
                    profile = profile_database(db)
            if hybrid is None:
                hybrid = build_layout(matrix, self.layout, self.dense_threshold)
            plan = None
            budget, table = self.device_budget_bytes, hybrid or matrix
            if budget is not None and table.nbytes > budget:
                plan = ShardPlan.for_table(table, memory_budget_bytes=budget)
            entry = DatasetEntry(
                name=name,
                db=db,
                matrix=matrix,
                profile=profile,
                shard_plan=plan,
                hybrid=hybrid,
                source=source,
                mmap=mmap,
            )
            sp.set(
                n_transactions=db.n_transactions,
                n_items=db.n_items,
                resident_bytes=entry.resident_bytes,
                sharded=plan is not None,
                layout="hybrid" if hybrid is not None else "dense",
                source=source,
                mmap=mmap,
            )
        return entry

    # -- eviction -----------------------------------------------------------

    def _evict_over_budget(self, keep: str) -> list:
        """Drop LRU entries until under budget (lock held by caller).

        Returns the evicted entries so the caller can spill them to the
        store *after* releasing the lock. Budget evictions do **not**
        invalidate cached results: the source is unchanged, a reload
        yields a bit-identical database, so every cached answer stays
        exact (anti-monotonicity does the rest).
        """
        victims: list = []
        if self.budget_bytes is None:
            return victims
        total = sum(e.resident_bytes for e in self._entries.values())
        while total > self.budget_bytes and len(self._entries) > 1:
            victim_name = next(n for n in self._entries if n != keep)
            victim = self._entries.pop(victim_name)
            victims.append(victim)
            total -= victim.resident_bytes
            self.metrics.inc("service.registry.evictions")
            self.metrics.inc("service.registry.evicted_bytes", victim.resident_bytes)
        return victims

    def evict(self, name: str) -> bool:
        """Explicitly drop a resident entry; True if it was loaded.

        Unlike budget eviction, an explicit evict is an operator saying
        "this dataset's content may have changed" — so it fires
        ``on_invalidate`` and the service drops the name's cached
        results rather than serving answers mined from stale bytes.
        """
        with self._lock:
            hit = self._entries.pop(name, None) is not None
            if hit:
                self.metrics.inc("service.registry.evictions")
            self._publish_gauges()
        if hit and self.on_invalidate is not None:
            self.on_invalidate(name)
        return hit

    def _publish_gauges(self) -> None:
        self.metrics.set_gauge(
            "service.registry.resident_bytes",
            sum(e.resident_bytes for e in self._entries.values()),
        )
        self.metrics.set_gauge("service.registry.resident_datasets", len(self._entries))

    # -- introspection ------------------------------------------------------

    def stats(self) -> Dict:
        stored = self.store.names() if self.store is not None else []
        with self._lock:
            return {
                "registered": sorted(self._sources),
                "stored": stored,
                "resident": list(self._entries),
                "resident_bytes": sum(
                    e.resident_bytes for e in self._entries.values()
                ),
                "budget_bytes": self.budget_bytes,
                "device_budget_bytes": self.device_budget_bytes,
                "layout": self.layout,
                "dense_threshold": self.dense_threshold,
            }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DatasetRegistry(registered={len(self._sources)}, "
            f"resident={len(self._entries)})"
        )
