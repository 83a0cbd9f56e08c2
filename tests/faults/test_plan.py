"""FaultSpec/FaultPlan validation, parsing, and hashability."""

import pytest

from repro.core.config import GPAprioriConfig
from repro.core.request import MiningRequest
from repro.errors import ConfigError, MiningError
from repro.faults import (
    FAULT_KINDS,
    FAULT_SITES,
    FaultPlan,
    FaultSpec,
    parse_fault_spec,
)


class TestFaultSpec:
    def test_on_nth_spec(self):
        spec = FaultSpec(site="gpusim.alloc", kind="device_oom", on_nth=2)
        assert spec.rate == 0.0
        assert spec.max_fires is None

    def test_rate_spec(self):
        spec = FaultSpec(site="gpusim.launch", kind="launch_error", rate=0.25)
        assert spec.on_nth is None

    def test_unknown_site_rejected(self):
        with pytest.raises(ConfigError, match="unknown fault site"):
            FaultSpec(site="gpusim.nope", kind="device_oom", on_nth=1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown fault kind"):
            FaultSpec(site="gpusim.alloc", kind="meteor", on_nth=1)

    def test_no_trigger_rejected(self):
        with pytest.raises(ConfigError, match="exactly one trigger"):
            FaultSpec(site="gpusim.alloc", kind="device_oom")

    def test_both_triggers_rejected(self):
        with pytest.raises(ConfigError, match="exactly one trigger"):
            FaultSpec(site="gpusim.alloc", kind="device_oom", rate=0.5, on_nth=1)

    def test_rate_out_of_range(self):
        with pytest.raises(ConfigError, match="rate must be"):
            FaultSpec(site="gpusim.alloc", kind="device_oom", rate=1.5)

    def test_on_nth_below_one(self):
        with pytest.raises(ConfigError, match="on_nth must be"):
            FaultSpec(site="gpusim.alloc", kind="device_oom", on_nth=0)

    def test_max_fires_below_one(self):
        with pytest.raises(ConfigError, match="max_fires must be"):
            FaultSpec(
                site="gpusim.alloc", kind="device_oom", on_nth=1, max_fires=0
            )

    def test_raise_fault_raises_mapped_exception(self):
        for kind, factory in FAULT_KINDS.items():
            spec = FaultSpec(site="gpusim.alloc", kind=kind, on_nth=1)
            with pytest.raises(type(factory("gpusim.alloc"))):
                spec.raise_fault()

    def test_every_site_is_valid(self):
        for site in FAULT_SITES:
            FaultSpec(site=site, kind="device_oom", on_nth=1)


class TestFaultPlan:
    def test_specs_coerced_to_tuple(self):
        spec = FaultSpec(site="gpusim.alloc", kind="device_oom", on_nth=1)
        plan = FaultPlan(specs=[spec])
        assert plan.specs == (spec,)

    def test_non_spec_rejected(self):
        with pytest.raises(ConfigError, match="must contain FaultSpec"):
            FaultPlan(specs=("gpusim.alloc:device_oom",))

    def test_sites_deduplicated_in_order(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(site="gpusim.htod", kind="transfer_error", on_nth=1),
                FaultSpec(site="gpusim.alloc", kind="device_oom", on_nth=1),
                FaultSpec(site="gpusim.htod", kind="device_oom", rate=0.5),
            )
        )
        assert plan.sites == ("gpusim.htod", "gpusim.alloc")

    def test_plan_is_hashable_and_comparable(self):
        a = FaultPlan(
            specs=(FaultSpec(site="gpusim.alloc", kind="device_oom", on_nth=1),)
        )
        b = FaultPlan(
            specs=(FaultSpec(site="gpusim.alloc", kind="device_oom", on_nth=1),)
        )
        assert a == b
        assert hash(a) == hash(b)
        assert a != FaultPlan(specs=a.specs, seed=7)

    def test_plan_changes_request_signature(self):
        # The plan is part of a request's identity (the service's cache
        # key): a chaotic run must never serve its result to a clean query.
        plan = FaultPlan(
            specs=(FaultSpec(site="gpusim.alloc", kind="device_oom", on_nth=1),)
        )
        clean = MiningRequest.build(0.5)
        chaotic = MiningRequest.build(0.5, options={"faults": plan})
        assert clean.signature() != chaotic.signature()

    def test_config_rejects_non_plan(self):
        # faults= is a request option, not a GPAprioriConfig field, and
        # a non-plan value is refused with a typed error
        with pytest.raises(TypeError, match="faults"):
            GPAprioriConfig(faults=FaultPlan())
        with pytest.raises(MiningError, match="faults must be a"):
            MiningRequest.build(0.5, options={"faults": "gpusim.alloc:device_oom"})


class TestParseFaultSpec:
    def test_full_form(self):
        spec = parse_fault_spec("gpusim.alloc:device_oom:on_nth=2,max_fires=3")
        assert spec == FaultSpec(
            site="gpusim.alloc", kind="device_oom", on_nth=2, max_fires=3
        )

    def test_rate_form(self):
        spec = parse_fault_spec("scheduler.worker:worker_crash:rate=0.5")
        assert spec.rate == 0.5

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "gpusim.alloc",
            ":device_oom",
            "gpusim.alloc::on_nth=1",
            "gpusim.alloc:device_oom:bogus=1",
            "gpusim.alloc:device_oom:on_nth",
            "gpusim.alloc:device_oom:on_nth=x",
        ],
    )
    def test_bad_forms_rejected(self, text):
        with pytest.raises(ConfigError):
            parse_fault_spec(text)
