"""Property: a survivable fault plan never changes the answer.

The robustness contract from the fault-injection harness: for every
fault plan the retry/degradation ladder can absorb, ``MiningService``
must return a result bit-identical to the fault-free run, with metric
evidence that recovery actually happened. Plans the ladder cannot
absorb must surface a *typed* :class:`~repro.errors.ReproError` —
never a hang, a corrupt result, or a bare ``Exception``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import mine
from repro.errors import (
    DeviceMemoryError,
    GpuSimError,
    KernelLaunchError,
    ReproError,
    WorkerCrashError,
)
from repro.faults import FaultPlan, FaultSpec, inject, uninstall
from repro.service import MiningService
from tests.conftest import brute_force_frequent
from tests.property.strategies import transaction_databases

SLOW = settings(max_examples=10, deadline=None)


@pytest.fixture(autouse=True)
def _no_leaked_session():
    yield
    uninstall()


def spec(site, kind, **kw):
    return FaultSpec(site=site, kind=kind, **kw)


@st.composite
def survivable_cases(draw):
    """(engine options, plan) pairs the service is contracted to absorb."""
    shape = draw(
        st.sampled_from(["device_oom", "worker_crash", "pool_death", "mixed"])
    )
    seed = draw(st.integers(min_value=0, max_value=2**16))
    if shape == "device_oom":
        # attempts=2 on DeviceMemoryError, then sharded degradation:
        # up to two fires at any gpusim site are absorbed.
        site = draw(
            st.sampled_from(["gpusim.alloc", "gpusim.htod", "gpusim.dtoh"])
        )
        options = {"engine": "simulated"}
        specs = (
            spec(
                site,
                "device_oom",
                on_nth=draw(st.integers(min_value=1, max_value=3)),
                max_fires=draw(st.integers(min_value=1, max_value=2)),
            ),
        )
    elif shape == "worker_crash":
        # RetryPolicy max_attempts=3 re-runs the query twice.
        options = draw(
            st.sampled_from([{}, {"engine": "simulated"}, {"shards": 2}])
        )
        specs = (
            spec(
                "scheduler.worker",
                "worker_crash",
                on_nth=1,
                max_fires=draw(st.integers(min_value=1, max_value=2)),
            ),
        )
    elif shape == "pool_death":
        # ParallelEngine degrades to in-process counting.
        options = {"engine": "parallel"}
        specs = (spec("parallel.submit", "pool_death", on_nth=1, max_fires=1),)
    else:
        options = {"engine": "simulated"}
        specs = (
            spec("scheduler.worker", "worker_crash", on_nth=1, max_fires=1),
            spec("gpusim.alloc", "device_oom", on_nth=1, max_fires=1),
        )
    return options, FaultPlan(specs=specs, seed=seed)


def evidence_total(service):
    """Total recovery evidence the service recorded (retries + degrades)."""
    snap = service.metrics.snapshot()
    total = sum(
        count
        for name, count in snap["counters"].items()
        if name.startswith(("service.retry", "service.degraded"))
    )
    for name, family in snap.get("labeled", {}).get("counters", {}).items():
        if name.startswith(("service.retry", "service.degraded")):
            total += sum(family.values())
    return total


class TestSurvivablePlans:
    @SLOW
    @given(
        transaction_databases(max_items=6, max_transactions=14, allow_empty_db=False),
        survivable_cases(),
        st.data(),
    )
    def test_bit_identical_to_fault_free_run(self, db, case, data):
        options, plan = case
        support = data.draw(
            st.integers(min_value=1, max_value=max(1, len(db))), label="support"
        )
        clean = mine(db, support, algorithm="gpapriori", **options)
        with MiningService(workers=1) as svc:
            svc.register_dataset("d", db)
            with inject(plan) as session:
                response = svc.query("d", support, **options)
            assert response.result.as_dict() == clean.as_dict()
            if session.fired() > 0:
                assert evidence_total(svc) > 0, (
                    f"{session.fired()} faults fired but no retry/degrade "
                    "evidence was recorded"
                )

    def test_plain_mine_absorbs_pool_death(self, small_db):
        # Engine-level degradation needs no service: the parallel
        # engine falls back to in-process counting on pool failure.
        clean = mine(small_db, 8, engine="parallel")
        plan = FaultPlan(
            specs=(spec("parallel.submit", "pool_death", on_nth=1, max_fires=1),)
        )
        chaotic = mine(small_db, 8, engine="parallel", faults=plan)
        assert chaotic.as_dict() == clean.as_dict()


class TestUnsurvivablePlans:
    @pytest.mark.parametrize(
        "options,plan_spec,expected",
        [
            # unbounded device OOM: retry and the degraded sharded run
            # both hit it; the typed error must surface
            (
                {"engine": "simulated"},
                spec("gpusim.alloc", "device_oom", on_nth=1),
                DeviceMemoryError,
            ),
            # worker crashes outlasting the retry budget
            (
                {},
                spec("scheduler.worker", "worker_crash", on_nth=1),
                WorkerCrashError,
            ),
            # kinds outside the ladder are not retried at all
            (
                {"engine": "simulated"},
                spec("gpusim.htod", "transfer_error", on_nth=1),
                GpuSimError,
            ),
            (
                {"engine": "simulated"},
                spec("gpusim.launch", "launch_error", on_nth=1),
                KernelLaunchError,
            ),
        ],
        ids=["oom-unbounded", "crash-unbounded", "transfer", "launch"],
    )
    def test_raises_typed_error_not_hang(self, small_db, options, plan_spec, expected):
        plan = FaultPlan(specs=(plan_spec,))
        with MiningService(workers=1) as svc:
            svc.register_dataset("d", small_db)
            with inject(plan):
                with pytest.raises(expected) as excinfo:
                    svc.query("d", 8, timeout=30.0, **options)
            assert isinstance(excinfo.value, ReproError)
            assert "injected" in str(excinfo.value)
        # the service is not poisoned: a clean query still works
        with MiningService(workers=1) as svc:
            svc.register_dataset("d", small_db)
            assert len(svc.query("d", 8, **options).result) >= 0


class TestRecoveryEvidence:
    def test_degradation_leaves_metrics_and_flight_trail(self, small_db):
        # Two OOM fires exhaust the device retry (attempts=2) and force
        # the sharded degradation; the evidence triple must all exist.
        plan = FaultPlan(
            specs=(spec("gpusim.alloc", "device_oom", on_nth=1, max_fires=2),)
        )
        clean = mine(small_db, 8, engine="simulated")
        with MiningService(workers=1) as svc:
            svc.register_dataset("d", small_db)
            with inject(plan) as session:
                response = svc.query("d", 8, engine="simulated")
            assert session.fired() == 2
            assert response.result.as_dict() == clean.as_dict()
            labels = {"site": "device_memory"}
            assert svc.metrics.counter("service.retry.attempts", labels=labels) >= 2
            assert svc.metrics.counter("service.degraded.total") == 1
            record = svc.flight.last()[0]
            names = str(record.detail())
            assert "fault.injected" in names
            assert "service.degraded" in names

    def test_hybrid_degrade_floor_holds_the_riding_bytes(self):
        # The degraded budget is clamped at the installed table's floor:
        # the pinned hybrid layout's tid-lists and row map plus one slab
        # of its dense rows and the candidate scratch.
        from repro.datasets.synthetic import dataset_analog

        db = dataset_analog("T40I10D100K", scale=0.05)
        plan = FaultPlan(
            specs=(spec("gpusim.alloc", "device_oom", on_nth=1, max_fires=2),)
        )
        with MiningService(
            workers=1,
            layout="hybrid",
            device_budget_bytes=100_000,
            maintenance_interval=None,
        ) as svc:
            svc.register_dataset("t40", db)
            with inject(plan):
                response = svc.query("t40", 0.2, engine="simulated")
            assert response.result.as_dict() == mine(db, 0.2).as_dict()
            assert svc.metrics.counter("service.degraded.total") == 1

    def test_equivalence_query_degrades_to_complete_plan(self, small_db):
        # The degraded sharded run takes the complete plan. Two fires
        # exhaust the device retry (an unbounded fault, counted across
        # the whole query, would fail the degraded run too).
        plan = FaultPlan(
            specs=(spec("gpusim.alloc", "device_oom", on_nth=1, max_fires=2),)
        )
        with MiningService(workers=1) as svc:
            svc.register_dataset("d", small_db)
            with inject(plan) as session:
                response = svc.query("d", 8, engine="simulated", plan="equivalence")
            assert session.fired() == 2
            assert response.result.as_dict() == brute_force_frequent(small_db, 8)
            assert svc.metrics.counter("service.degraded.total") == 1
            run = response.result.metrics
            assert "shard.count" in run.registry.gauges
            assert "prefix_row_bytes_written" not in run.counters

    def test_worker_crash_retry_leaves_metrics(self, small_db):
        plan = FaultPlan(
            specs=(spec("scheduler.worker", "worker_crash", on_nth=1, max_fires=1),)
        )
        with MiningService(workers=1) as svc:
            svc.register_dataset("d", small_db)
            with inject(plan):
                response = svc.query("d", 8)
            assert response.result.as_dict() == mine(small_db, 8).as_dict()
            labels = {"site": "scheduler.worker"}
            assert svc.metrics.counter("service.retry.attempts", labels=labels) >= 1
