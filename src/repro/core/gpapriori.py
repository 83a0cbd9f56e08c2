"""The GPApriori mining driver (host side of paper Section IV).

Flow, matching the paper:

1. transpose the database into the static bitset table and install it
   on the (simulated) device — the only full-database transfer;
2. count generation 1 with the support kernel, keep the frequent items
   as the first trie level;
3. repeat: generate (k+1)-candidates by the trie leaf/sibling join,
   ship the candidate buffer to the device, launch the support kernel,
   fetch supports, prune the level — until a generation is empty.

Steps 2-3 are the shared :func:`~repro.core.levelwise.levelwise`
driver; this module supplies the plan's counting and prefix caching.

The driver is plan- and engine-agnostic; every combination of
{complete, equivalence} x {vectorized, simulated} mines identical
itemsets (asserted in the integration tests).
"""

from __future__ import annotations

from functools import partial

from .._validation import check_support
from ..bitset.bitset import BitsetMatrix
from ..bitset.hybrid import HybridLayout, auto_dense_threshold
from ..errors import MiningError
from ..faults.injection import inject
from ..gpusim.device import TESLA_T10, DeviceProperties
from ..obs import mining_run, span
from .config import GPAprioriConfig
from .itemset import MiningResult, RunMetrics
from .levelwise import levelwise
from .plans import make_plan
from .support import make_engine

__all__ = ["gpapriori_mine"]


def gpapriori_mine(
    db,
    min_support,
    config: GPAprioriConfig | None = None,
    device: DeviceProperties = TESLA_T10,
    max_k: int | None = None,
    matrix: BitsetMatrix | None = None,
    hybrid: HybridLayout | None = None,
) -> MiningResult:
    """Mine all frequent itemsets of ``db`` with GPApriori.

    Parameters
    ----------
    db:
        A :class:`~repro.datasets.transaction_db.TransactionDatabase`.
    min_support:
        Fractional support ratio in (0, 1] or absolute count >= 1.
    config:
        Kernel/plan/engine configuration; defaults to the paper's tuned
        settings (block 256, preload on, unroll 4, complete
        intersection, vectorized engine).
    device:
        Device sheet for the simulator and the cost model.
    max_k:
        Optional cap on itemset length (None = run to exhaustion).
    matrix:
        Optional pre-built vertical bitset matrix of ``db``. The
        mining service's dataset registry pins one per dataset so the
        O(db) transpose happens once per dataset, not once per query;
        it must match ``db``'s dimensions and ``config.aligned``.
    hybrid:
        Optional pre-built :class:`~repro.bitset.hybrid.HybridLayout`
        of ``db`` (the registry's pinned classification). Requires
        ``config.layout`` of ``"hybrid"`` or ``"auto"`` and is used
        as-is — the caller decided the threshold when building it.
        Without it, a non-dense ``config.layout`` classifies the
        (possibly pinned) matrix here: ``"hybrid"`` always installs
        the hybrid table, ``"auto"`` only when it actually saves
        device bytes.

    Returns
    -------
    MiningResult
        Frequent itemsets with absolute supports, plus wall-clock,
        modeled hardware costs, and per-generation candidate counts.
    """
    config = config or GPAprioriConfig()
    min_count = check_support(min_support, db.n_transactions, MiningError)
    if max_k is not None and max_k < 1:
        raise MiningError(f"max_k must be >= 1, got {max_k}")

    metrics = RunMetrics(algorithm="gpapriori")

    run_attrs = dict(
        engine=config.engine,
        plan=config.plan,
        n_transactions=db.n_transactions,
        n_items=db.n_items,
    )
    if config.engine == "parallel":
        from .parallel import resolve_workers

        run_attrs["workers"] = resolve_workers(config.workers)
    if config.engine == "multigpu":
        from .partitioned import resolve_devices

        run_attrs["devices"] = resolve_devices(config.devices)
    if config.sharded:
        run_attrs["shards"] = config.shards or "auto"
        if config.memory_budget_bytes is not None:
            run_attrs["memory_budget_bytes"] = config.memory_budget_bytes
    if matrix is not None:
        if matrix.n_transactions != db.n_transactions or matrix.n_items != db.n_items:
            raise MiningError(
                f"pinned matrix shape ({matrix.n_items} items x "
                f"{matrix.n_transactions} transactions) does not match the "
                f"database ({db.n_items} x {db.n_transactions})"
            )
        if config.aligned and not matrix.is_aligned():
            raise MiningError(
                "config.aligned=True but the pinned matrix is not 64-byte aligned"
            )
    if hybrid is not None:
        if config.layout == "dense":
            raise MiningError(
                "hybrid= requires config.layout='hybrid' or 'auto'"
            )
        if (
            hybrid.n_transactions != db.n_transactions
            or hybrid.n_items != db.n_items
        ):
            raise MiningError(
                f"pinned hybrid layout shape ({hybrid.n_items} items x "
                f"{hybrid.n_transactions} transactions) does not match the "
                f"database ({db.n_items} x {db.n_transactions})"
            )
    if config.layout != "dense":
        run_attrs["layout"] = config.layout
        if config.dense_threshold is not None:
            run_attrs["dense_threshold"] = config.dense_threshold

    with inject(config.faults), mining_run("gpapriori", metrics, **run_attrs):
        layout = hybrid
        with span(
            "transpose",
            aligned=config.aligned,
            pinned=matrix is not None or hybrid is not None,
        ) as sp:
            if layout is None:
                if matrix is None:
                    matrix = BitsetMatrix.from_database(db, aligned=config.aligned)
                if config.layout != "dense":
                    threshold = (
                        config.dense_threshold
                        if config.dense_threshold is not None
                        else auto_dense_threshold(
                            matrix.n_transactions, matrix.n_words
                        )
                    )
                    built = HybridLayout.from_matrix(matrix, threshold)
                    if config.layout == "hybrid" or built.bytes_saved > 0:
                        layout = built
            if layout is not None:
                sp.set(
                    n_items=layout.n_items,
                    n_words=layout.n_words,
                    bytes=layout.device_bytes,
                    layout="hybrid",
                    dense_items=layout.n_dense,
                    sparse_items=layout.n_sparse,
                )
            else:
                sp.set(
                    n_items=matrix.n_items,
                    n_words=matrix.n_words,
                    bytes=matrix.nbytes,
                )
        engine = make_engine(config, metrics, device)
        if layout is not None:
            reg = metrics.registry
            reg.set_gauge("layout.dense_items", layout.n_dense)
            reg.set_gauge("layout.sparse_items", layout.n_sparse)
            reg.set_gauge("layout.device_bytes", layout.device_bytes)
            reg.set_gauge("layout.bytes_saved", layout.bytes_saved)
        install_bytes = layout.device_bytes if layout is not None else matrix.nbytes
        with span("install", bytes=install_bytes):
            if layout is not None:
                engine.setup(None, hybrid=layout)
            else:
                engine.setup(matrix)
        plan = make_plan(config.plan)

        found = levelwise(
            db.n_items,
            min_count,
            partial(plan.count, engine),
            metrics,
            max_k,
            retain=partial(plan.after_prune, engine),
        )

        engine.finalize()

    return MiningResult(
        itemsets=found,
        n_transactions=db.n_transactions,
        min_support=min_count,
        metrics=metrics,
    )
