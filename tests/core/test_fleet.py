"""Unit tests for the multi-GPU fleet engine (engine="multigpu").

The equivalence sweeps live in the property suites; these tests pin
the fleet-specific machinery — configuration validation, the replica
and shard plan, metrics/gauges, and the fault-degradation path where a
dead device's candidate block is repartitioned onto the surviving fleet.
"""

import numpy as np
import pytest

from repro import GPAprioriConfig, gpapriori_mine, mine
from repro.core.itemset import RunMetrics
from repro.core.partitioned import DEFAULT_DEVICES, FleetEngine, resolve_devices
from repro.core.support import make_engine
from repro.datasets import TransactionDatabase
from repro.errors import ConfigError, DeviceMemoryError, MiningError
from repro.faults.plan import FaultPlan, FaultSpec


@pytest.fixture
def fleet_db():
    rng = np.random.default_rng(11)
    rows = [
        sorted(set(rng.integers(0, 10, size=rng.integers(1, 7)).tolist()))
        for _ in range(36)
    ]
    return TransactionDatabase(rows, n_items=10)


class TestConfigWiring:
    def test_devices_requires_multigpu_engine(self):
        with pytest.raises(ConfigError, match="engine='multigpu'"):
            GPAprioriConfig(devices=2)

    def test_multigpu_rejects_equivalence_plan(self):
        with pytest.raises(ConfigError, match="complete"):
            GPAprioriConfig(engine="multigpu", plan="equivalence")

    @pytest.mark.parametrize("bad", [-1, True, 1.5, "4"])
    def test_devices_must_be_nonnegative_int(self, bad):
        with pytest.raises(ConfigError):
            GPAprioriConfig(engine="multigpu", devices=bad)

    def test_zero_devices_means_full_s1070(self):
        assert resolve_devices(0) == DEFAULT_DEVICES == 4
        engine = make_engine(
            GPAprioriConfig(engine="multigpu"), RunMetrics(algorithm="t")
        )
        assert isinstance(engine, FleetEngine)
        assert engine.n_devices == 4

    def test_make_engine_dispatches_before_sharding(self):
        # a sharded multigpu config must become a fleet whose members
        # shard, not a host-level ShardedEngine wrapping "multigpu"
        engine = make_engine(
            GPAprioriConfig(engine="multigpu", devices=2, shards=3),
            RunMetrics(algorithm="t"),
        )
        assert isinstance(engine, FleetEngine)

    def test_run_attrs_and_gauges(self, fleet_db):
        result = gpapriori_mine(
            fleet_db, 4, config=GPAprioriConfig(engine="multigpu", devices=3)
        )
        reg = result.metrics.registry
        assert reg.gauge("fleet.devices") == 3
        assert reg.gauge("fleet.devices_alive") == 3
        assert reg.gauge("fleet.replica_bytes") > 0
        assert reg.gauge("fleet.makespan_seconds") > 0
        assert reg.gauge("fleet.single_device_seconds") > 0
        assert result.metrics.counters["fleet.generations"] >= 1
        assert result.metrics.counters["fleet.candidates"] >= fleet_db.n_items
        assert result.metrics.modeled_breakdown["fleet_makespan"] > 0


class TestModeledTime:
    """A fleet run's modeled time is its makespan, not the sum of devices."""

    def test_one_device_prices_like_one_engine(self, fleet_db):
        ref = gpapriori_mine(fleet_db, 4).metrics
        got = gpapriori_mine(
            fleet_db, 4, config=GPAprioriConfig(engine="multigpu", devices=1)
        ).metrics
        assert got.modeled_seconds == pytest.approx(ref.modeled_seconds)

    @pytest.mark.parametrize("devices", [2, 4])
    def test_modeled_seconds_is_the_makespan(self, fleet_db, devices):
        metrics = gpapriori_mine(
            fleet_db, 4, config=GPAprioriConfig(engine="multigpu", devices=devices)
        ).metrics
        assert metrics.modeled_breakdown == {
            "fleet_makespan": metrics.registry.gauge("fleet.makespan_seconds")
        }
        assert metrics.modeled_seconds == metrics.modeled_breakdown["fleet_makespan"]
        # the devices' counters still add into the run's registry
        assert metrics.counters["kernel.launches"] >= devices


class TestFleetPlan:
    def test_resident_replica(self, fleet_db):
        engine = make_engine(
            GPAprioriConfig(engine="multigpu", devices=2),
            RunMetrics(algorithm="t"),
        )
        from repro.bitset import BitsetMatrix

        matrix = BitsetMatrix.from_database(fleet_db)
        engine.setup(matrix)
        try:
            assert engine.shard_plan is None
            assert engine.n_devices == 2
            assert engine.metrics.registry.gauge("fleet.replica_bytes") == matrix.nbytes
        finally:
            engine.finalize()

    def test_budget_forces_sharded_fleet(self, fleet_db):
        from repro.bitset import BitsetMatrix

        matrix = BitsetMatrix.from_database(fleet_db, aligned=False)
        # room for three one-word slab columns + scratch, but not for
        # the full two-word replica double-buffered: forces 2 shards
        budget = 3 * matrix.n_items * 4
        engine = make_engine(
            GPAprioriConfig(
                engine="multigpu",
                devices=2,
                aligned=False,
                memory_budget_bytes=budget,
            ),
            RunMetrics(algorithm="t"),
        )
        engine.setup(matrix)
        try:
            assert engine.shard_plan.n_shards > 1
            reg = engine.metrics.registry
            assert reg.gauge("fleet.shards_per_device") == engine.shard_plan.n_shards
        finally:
            engine.finalize()

    def test_equivalence_contract_refused(self, fleet_db):
        engine = make_engine(
            GPAprioriConfig(engine="multigpu", devices=2),
            RunMetrics(algorithm="t"),
        )
        with pytest.raises(MiningError, match="complete-intersection"):
            engine.count_extend(np.zeros((1, 2), dtype=np.int64))
        with pytest.raises(MiningError, match="complete-intersection"):
            engine.retain(np.zeros(0, dtype=np.int64))


class TestFaultDegradation:
    def test_single_device_fault_degrades_and_stays_exact(self, fleet_db):
        reference = gpapriori_mine(fleet_db, 4)
        plan = FaultPlan(
            (
                FaultSpec(
                    site="fleet.submit",
                    kind="launch_error",
                    on_nth=2,
                    max_fires=1,
                ),
            )
        )
        result = mine(fleet_db, 4, engine="multigpu", devices=4, faults=plan)
        assert result.as_dict() == reference.as_dict()
        reg = result.metrics.registry
        assert reg.gauge("fleet.devices_alive") == 3
        assert result.metrics.counters["fleet.device_failures"] == 1
        assert result.metrics.counters["service.degraded.total"] == 1

    @pytest.mark.parametrize("kind", ["device_oom", "transfer_error"])
    def test_repeated_faults_burn_down_to_last_survivor(self, fleet_db, kind):
        reference = gpapriori_mine(fleet_db, 4)
        plan = FaultPlan(
            (
                FaultSpec(
                    site="fleet.submit", kind=kind, on_nth=1, max_fires=2
                ),
            )
        )
        result = mine(fleet_db, 4, engine="multigpu", devices=3, faults=plan)
        assert result.as_dict() == reference.as_dict()
        assert result.metrics.counters["fleet.device_failures"] == 2
        assert result.metrics.registry.gauge("fleet.devices_alive") == 1

    def test_whole_fleet_death_propagates(self, fleet_db):
        plan = FaultPlan(
            (FaultSpec(site="fleet.submit", kind="device_oom", rate=1.0),)
        )
        with pytest.raises(DeviceMemoryError):
            mine(fleet_db, 4, engine="multigpu", devices=2, faults=plan)


class TestEntryPoints:
    def test_mine_kwargs(self, fleet_db):
        reference = mine(fleet_db, 4)
        got = mine(fleet_db, 4, engine="multigpu", devices=4)
        assert got.as_dict() == reference.as_dict()

    def test_mine_max_k(self, fleet_db):
        got = mine(fleet_db, 4, max_k=1, engine="multigpu", devices=2)
        assert all(len(items) == 1 for items in got.as_dict())
