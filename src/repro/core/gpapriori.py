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

from .._validation import check_query
from ..bitset.bitset import BitsetMatrix
from ..bitset.hybrid import HybridLayout, Table, build_layout
from ..errors import MiningError
from ..gpusim.device import TESLA_T10, DeviceProperties
from ..obs import mining_run, span
from .config import GPAprioriConfig
from .itemset import MiningResult, RunMetrics
from .levelwise import levelwise
from .plans import make_plan
from .support import make_engine

__all__ = ["gpapriori_mine", "generation1_table"]


def generation1_table(
    db,
    config: GPAprioriConfig,
    matrix: BitsetMatrix | None = None,
    hybrid: HybridLayout | None = None,
) -> Table:
    """The generation-1 table ``config`` asks for on ``db``.

    ``hybrid``, a pinned hybrid layout, is taken when the config asks
    for a hybrid table at its threshold. Otherwise
    :func:`~repro.bitset.hybrid.build_layout` classifies ``matrix``, a
    pinned aligned bitset matrix, for an aligned config, or a fresh
    transpose, and may keep the all-dense matrix.
    """
    if (
        hybrid is not None
        and config.layout != "dense"
        and config.dense_threshold in (None, hybrid.dense_threshold)
    ):
        return hybrid
    if matrix is None or not config.aligned:
        matrix = BitsetMatrix.from_database(db, aligned=config.aligned)
    return build_layout(matrix, config.layout, config.dense_threshold) or matrix


def gpapriori_mine(
    db,
    min_support,
    config: GPAprioriConfig | None = None,
    device: DeviceProperties = TESLA_T10,
    max_k: int | None = None,
    table: Table | None = None,
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
    table:
        Optional pre-built generation-1 table of ``db``: a
        :class:`~repro.bitset.bitset.BitsetMatrix` or a
        :class:`~repro.bitset.hybrid.HybridLayout`. It is installed as
        given (the caller chose its format, alignment and threshold)
        and must match ``db``'s dimensions. The mining service pins
        one per dataset, so the O(db) transpose happens once per
        dataset, not once per query. Without it,
        :func:`generation1_table` builds the one ``config`` asks for.

    Returns
    -------
    MiningResult
        Frequent itemsets with absolute supports, plus wall-clock,
        modeled hardware costs, and per-generation candidate counts.
    """
    config = config or GPAprioriConfig()
    min_count = check_query(min_support, db.n_transactions, max_k, MiningError)

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
    if table is not None and (table.n_items, table.n_transactions) != (
        db.n_items, db.n_transactions
    ):
        raise MiningError(
            f"pinned table shape ({table.n_items} items x "
            f"{table.n_transactions} transactions) does not match the "
            f"database ({db.n_items} x {db.n_transactions})"
        )
    if config.layout != "dense":
        run_attrs["layout"] = config.layout
        if config.dense_threshold is not None:
            run_attrs["dense_threshold"] = config.dense_threshold

    with mining_run("gpapriori", metrics, **run_attrs):
        with span(
            "transpose",
            aligned=config.aligned,
            pinned=table is not None,
        ) as sp:
            if table is None:
                table = generation1_table(db, config)
            sp.set(n_items=table.n_items, n_words=table.n_words, bytes=table.nbytes)
            layout = table if isinstance(table, HybridLayout) else None
            if layout is not None:
                sp.set(layout="hybrid", dense_items=layout.n_dense, sparse_items=layout.n_sparse)
        engine = make_engine(config, metrics, device)
        # the engine may hold threads: release them on every exit path,
        # also when a caller keeps the exception (and its traceback)
        try:
            if layout is not None:
                reg = metrics.registry
                reg.set_gauge("layout.dense_items", layout.n_dense)
                reg.set_gauge("layout.sparse_items", layout.n_sparse)
                reg.set_gauge("layout.device_bytes", layout.device_bytes)
                reg.set_gauge("layout.bytes_saved", layout.bytes_saved)
            with span("install", bytes=table.nbytes):
                engine.setup(table)
            plan = make_plan(config.plan)

            levels = levelwise(
                db.n_items,
                min_count,
                partial(plan.count, engine),
                metrics,
                max_k,
                retain=partial(plan.after_prune, engine),
            )
            engine.finalize()
        finally:
            engine.close()

    return MiningResult.from_levels(
        levels,
        n_transactions=db.n_transactions,
        min_support=min_count,
        metrics=metrics,
    )
