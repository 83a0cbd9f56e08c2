"""GPApriori configuration: the paper's Section IV.3 tuning knobs.

The paper names three hand-tuned kernel optimizations — candidate
preloading into shared memory, manual loop unrolling, and block-size
tuning — plus the Section IV.2 choice between complete intersection and
equivalence-class clustering. All four are first-class configuration
here so the ablation benchmarks can toggle them individually.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .._validation import check_non_negative_int, check_positive_int
from ..errors import ConfigError

__all__ = ["GPAprioriConfig"]

_VALID_ENGINES = ("vectorized", "simulated", "parallel", "multigpu")
_VALID_PLANS = ("complete", "equivalence")
_VALID_LAYOUTS = ("dense", "hybrid", "auto")


@dataclass(frozen=True)
class GPAprioriConfig:
    """Tuning parameters of a GPApriori run.

    Attributes
    ----------
    block_size:
        Threads per block. The paper hand-tunes this; 256 is the
        default sweet spot on a T10 (full occupancy at 8 blocks/SM
        within register limits). Must be a power of two so the parallel
        reduction's tree is exact, and within device limits (checked at
        launch).
    preload_candidates:
        Stage the candidate's item ids in shared memory once per block
        (paper optimization 1). Turning this off makes every thread
        fetch the ids from global memory — the ablation benchmark
        prices the difference.
    unroll:
        Manual word-loop unroll factor (paper optimization 2). Only
        affects the performance model — Python has no instruction-level
        loop overhead worth modeling functionally.
    plan:
        ``"complete"`` — complete intersection (the paper's choice:
        only generation-1 bitsets live on the GPU, each candidate ANDs
        all k rows). ``"equivalence"`` — equivalence-class clustering
        (cache (k-1)-prefix intersections; fewer ANDs, more memory).
        Equivalence is the paper's ablation on one device: it needs
        ``layout="dense"``, no sharding and one of the ``vectorized``,
        ``parallel`` or ``simulated`` engines.
    engine:
        ``"vectorized"`` — NumPy host execution of the same arithmetic.
        ``"simulated"`` — run the real kernel on :mod:`repro.gpusim`
        thread-by-thread (slow; for validation and access traces).
        ``"parallel"`` — the vectorized arithmetic fanned out over the
        calling thread plus a thread pool, all reading the one bitset
        table in place (host-side data parallelism standing in for
        the GPU's).
        ``"multigpu"`` — a fleet of simulated devices each holding a
        full replica of the vertical table, with every generation's
        candidate buffer block-partitioned across them (the paper's
        Tesla S1070 future-work scenario). Requires
        ``plan="complete"``.
    workers:
        Counting-thread count for the parallel engine, the calling
        thread included. ``0`` (the default) sizes it to the host's
        usable cores (capped at 8); ``1`` runs in-process. Ignored by
        the other engines.
    devices:
        Device count for the multigpu fleet engine. ``0`` (the
        default) means the full testbed — four T10s, the paper's
        S1070 chassis. Only meaningful with ``engine="multigpu"``.
    aligned:
        Keep bitset rows on the 64-byte boundary (paper Section IV.1).
        Disabling alignment is only useful for the coalescing ablation.
    trace_accesses:
        Record global-memory accesses during simulated runs (memory
        hungry; implies ``engine="simulated"`` consumers).
    shards:
        Split the transaction-id axis into this many word-aligned
        tid-range shards and stream them through the counting engine
        (out-of-core mining; supports are additive across disjoint tid
        ranges so results are bit-identical). ``0`` (the default) means
        "no explicit shard count": a single shard unless
        ``memory_budget_bytes`` forces more.
    memory_budget_bytes:
        Device-memory budget for the generation-1 bitsets. ``None``
        (the default) uses the device's full global memory. When the
        bitset matrix exceeds the budget, the shard width is sized so
        two shard slabs (double buffering) fit inside it — this is what
        lets datasets larger than (simulated) device DRAM be mined.
    layout:
        Vertical layout for the generation-1 table. ``"dense"`` (the
        default) is the paper's static bitset matrix. ``"hybrid"``
        keeps only high-density items as bitset rows and demotes the
        rest to sorted tid-lists (HybridMiner-style); results are
        bit-identical, memory and streamed bytes shrink on sparse
        data. ``"auto"`` builds the hybrid classification at the
        break-even threshold and falls back to all-dense whenever
        hybridizing would not actually save device bytes.
    dense_threshold:
        Support-density cutoff for the hybrid classification: items
        with ``support >= dense_threshold * n_transactions`` stay
        dense. ``None`` (the default) uses the exact storage
        break-even ``n_words / n_transactions`` (~1/32). Only
        meaningful with ``layout="hybrid"``/``"auto"``.
    """

    block_size: int = 256
    preload_candidates: bool = True
    unroll: int = 4
    plan: str = "complete"
    engine: str = "vectorized"
    workers: int = 0
    aligned: bool = True
    trace_accesses: bool = False
    shards: int = 0
    memory_budget_bytes: int | None = None
    layout: str = "dense"
    dense_threshold: float | None = None
    devices: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.block_size, int) or isinstance(self.block_size, bool):
            raise ConfigError("block_size must be an int")
        if self.block_size < 1 or self.block_size & (self.block_size - 1):
            raise ConfigError(
                f"block_size must be a positive power of two, got {self.block_size}"
            )
        check_positive_int(self.unroll, "unroll", ConfigError)
        for name in ("workers", "shards", "devices"):
            check_non_negative_int(getattr(self, name), name, ConfigError)
        if self.memory_budget_bytes is not None:
            check_positive_int(self.memory_budget_bytes, "memory_budget_bytes", ConfigError)
        if self.plan not in _VALID_PLANS:
            raise ConfigError(f"plan must be one of {_VALID_PLANS}, got {self.plan!r}")
        if self.engine not in _VALID_ENGINES:
            raise ConfigError(
                f"engine must be one of {_VALID_ENGINES}, got {self.engine!r}"
            )
        if self.layout not in _VALID_LAYOUTS:
            raise ConfigError(
                f"layout must be one of {_VALID_LAYOUTS}, got {self.layout!r}"
            )
        if self.dense_threshold is not None:
            if (
                not isinstance(self.dense_threshold, (int, float))
                or isinstance(self.dense_threshold, bool)
                or not 0.0 <= self.dense_threshold <= 1.0
            ):
                raise ConfigError(
                    "dense_threshold must be a float in [0, 1] or None, "
                    f"got {self.dense_threshold!r}"
                )
            if self.layout == "dense":
                raise ConfigError(
                    "dense_threshold requires layout='hybrid' or 'auto'"
                )
        if self.devices and self.engine != "multigpu":
            raise ConfigError(
                f"devices={self.devices} requires engine='multigpu', "
                f"got engine={self.engine!r}"
            )
        if self.plan == "equivalence" and (
            self.layout != "dense" or self.sharded or self.engine == "multigpu"
        ):
            raise ConfigError(
                "plan='equivalence' is the Section IV.2 ablation: it needs "
                "layout='dense', no sharding (shards <= 1, no "
                "memory_budget_bytes) and engine 'vectorized', 'parallel' or "
                f"'simulated'; got layout={self.layout!r}, shards={self.shards}, "
                f"memory_budget_bytes={self.memory_budget_bytes!r}, "
                f"engine={self.engine!r}. plan='complete' takes every combination"
            )

    @property
    def sharded(self) -> bool:
        """Whether this run streams tid-range shards through the engine."""
        return self.shards > 1 or self.memory_budget_bytes is not None

    def with_(self, **overrides) -> "GPAprioriConfig":
        """Return a copy with fields replaced (ablation convenience)."""
        return replace(self, **overrides)

    def signature(self) -> tuple:
        """Canonical hashable identity of this configuration.

        :meth:`~repro.core.request.MiningRequest.signature` builds the
        mining service's cache key from this tuple, so two queries with
        equal configs — however they were spelled (``config=`` object
        vs. individual keyword fields) — share one execution and one
        cache entry. Fields appear in declaration order.
        """
        return tuple(
            (name, getattr(self, name)) for name in self.__dataclass_fields__
        )
