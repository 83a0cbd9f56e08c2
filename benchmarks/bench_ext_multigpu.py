"""Extension bench: fleet scaling for the multi-GPU engine.

The paper's S1070 holds four T10s but uses one. The ``multigpu``
engine partitions each generation's candidate buffer over a model
fleet; this bench drives it through a launch-bound workload — few
transactions (cheap slices) but a six-figure candidate generation, so
the per-device launch + PCIe floor is amortized — and reports the
1/2/4/8-device scaling curve. The full S1070 must beat one T10 by
>= 2.5x modeled, and a budget-constrained sharded fleet (every device
streaming tid-range shards) must stay bit-identical.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro import GPAprioriConfig, MiningResult, mine
from repro.bench import render_table
from repro.datasets import TransactionDatabase

SUPPORT = 0.25
MAX_K = 2
DEVICES = [1, 2, 4, 8]


def _launch_bound_db(n_items=600, n_tx=96, density=0.5, seed=42):
    """Wide-and-shallow database: C(600, 2) ~ 180k second-generation
    candidates over a 3-word unaligned bitset column, so modeled time
    is dominated by per-launch fixed cost — the regime where extra
    devices pay off."""
    rng = np.random.default_rng(seed)
    rows = [
        sorted(np.flatnonzero(rng.random(n_items) < density).tolist())
        for _ in range(n_tx)
    ]
    return TransactionDatabase(rows, n_items=n_items)


@dataclass(frozen=True)
class FleetRun:
    """One fleet mine and its two modeled clocks."""

    n_devices: int
    result: MiningResult
    makespan_seconds: float
    single_device_seconds: float

    @property
    def speedup(self) -> float:
        return self.single_device_seconds / self.makespan_seconds

    @property
    def efficiency(self) -> float:
        return self.speedup / self.n_devices


def fleet_run(db, n_devices, config=GPAprioriConfig(aligned=False)):
    """Mine on ``n_devices`` modeled T10s and read the fleet clocks."""
    result = mine(
        db,
        SUPPORT,
        config=config.with_(engine="multigpu", devices=n_devices),
        max_k=MAX_K,
    )
    return FleetRun(
        n_devices=n_devices,
        result=result,
        makespan_seconds=result.metrics.modeled_breakdown["fleet_makespan"],
        single_device_seconds=result.metrics.registry.gauges[
            "fleet.single_device_seconds"
        ],
    )


@pytest.fixture(scope="module")
def db():
    return _launch_bound_db()


@pytest.fixture(scope="module")
def sweep(db):
    return [fleet_run(db, n) for n in DEVICES]


def test_scaling_table(sweep):
    rows = [
        (
            r.n_devices,
            f"{r.makespan_seconds * 1e3:.3f} ms",
            f"{r.speedup:.2f}x",
            f"{r.efficiency:.0%}",
        )
        for r in sweep
    ]
    print()
    print(f"fleet scaling, launch-bound workload (support {SUPPORT}):")
    print(render_table(["devices", "modeled makespan", "speedup", "efficiency"], rows))


def test_results_invariant_under_partitioning(sweep, db):
    ref = mine(db, SUPPORT, max_k=MAX_K)
    for r in sweep:
        assert r.result.same_itemsets(ref)


def test_four_gpus_meaningfully_faster(sweep):
    """The paper's unused 3 extra T10s were leaving real speedup on the
    table: the full S1070 must beat one device by >= 2.5x here."""
    by_devices = {r.n_devices: r for r in sweep}
    assert by_devices[4].speedup >= 2.5


def test_efficiency_decreases_with_fleet_size(sweep):
    effs = [r.speedup / r.n_devices for r in sweep]
    assert effs == sorted(effs, reverse=True)


def test_makespan_monotone_non_increasing(sweep):
    spans = [r.makespan_seconds for r in sweep]
    assert spans == sorted(spans, reverse=True)


def test_sharded_fleet_stays_exact(capsys):
    """Devices whose budget cannot hold a replica stream tid-range
    shards instead; the partitioned answer must not move."""
    db = _launch_bound_db(n_items=160, n_tx=96, seed=7)
    ref = mine(db, SUPPORT, max_k=MAX_K)
    budget = 3 * db.n_items * 4  # 1-word slab fit -> forced sharding
    r = fleet_run(
        db, 4, config=GPAprioriConfig(aligned=False, memory_budget_bytes=budget)
    )
    assert r.result.same_itemsets(ref)
    assert r.makespan_seconds > 0.0
    print(
        f"\nsharded fleet (budget {budget} B): "
        f"makespan {r.makespan_seconds * 1e3:.3f} ms, "
        f"speedup {r.speedup:.2f}x over one device"
    )


def test_bench_four_gpus(bench_one):
    # timing round only; the scaling sweep above owns the big workload
    db = _launch_bound_db(n_items=160, n_tx=96, seed=7)
    r = bench_one(mine, db, SUPPORT, engine="multigpu", devices=4, max_k=MAX_K)
    assert len(r) > 0
