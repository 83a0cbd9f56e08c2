"""Unit tests for the canonical MiningRequest object."""

import pytest

from repro.core.api import mine
from repro.core.config import GPAprioriConfig
from repro.core.request import MiningRequest
from repro.datasets import TransactionDatabase
from repro.errors import ConfigError, MiningError
from repro.faults import FaultPlan
from repro.service import MiningService


@pytest.fixture
def db():
    return TransactionDatabase([[0, 1, 2], [0, 1], [0, 2], [1, 2]])


class TestBuild:
    def test_canonical_form(self):
        request = MiningRequest.build(
            0.5,
            algorithm="GPApriori",
            options={"engine": "vectorized", "max_k": 2, "shards": 3},
        )
        assert request.algorithm == "gpapriori"
        assert request.max_k == 2
        # options are sorted pairs, max_k hoisted out
        assert request.options == (("engine", "vectorized"), ("shards", 3))
        assert request.config == GPAprioriConfig(engine="vectorized", shards=3)

    def test_unknown_algorithm(self):
        with pytest.raises(MiningError, match="unknown algorithm 'nope'"):
            MiningRequest.build(0.5, algorithm="nope")

    def test_auto_is_not_a_registry_key(self):
        # the service resolves "auto" against the dataset profile
        # before it builds the request
        with pytest.raises(MiningError) as err:
            MiningRequest.build(0.5, algorithm="auto")
        assert "'auto'" not in str(err.value).split("choose from")[1]
        with pytest.raises(MiningError, match="'algorithm' must be a string"):
            MiningRequest.build(0.5, algorithm=3)

    def test_unknown_option(self):
        with pytest.raises(
            MiningError,
            match="unknown option 'diffsets' for algorithm 'borgelt'",
        ):
            MiningRequest.build(
                0.5, algorithm="borgelt", options={"diffsets": True}
            )

    def test_faults_normalized_into_field(self):
        plan = FaultPlan(seed=1)
        request = MiningRequest.build(0.5, options={"faults": plan})
        assert request.faults is plan
        assert request.options == ()
        with pytest.raises(MiningError, match="faults must be a"):
            MiningRequest.build(0.5, options={"faults": "chaos"})

    def test_reserved_faults_stays_an_option(self):
        # a service-style build leaves faults in options so the
        # reserved-option check owns the rejection
        with pytest.raises(MiningError, match="managed by the service"):
            MiningRequest.build(
                0.5,
                options={"faults": FaultPlan(seed=1)},
                reserved=("faults",),
            )

    def test_reserved_option_rejected_and_hidden_from_listing(self):
        with pytest.raises(MiningError, match="managed by the service"):
            MiningRequest.build(
                0.5, options={"matrix": object()}, reserved=("matrix",)
            )
        with pytest.raises(MiningError) as err:
            MiningRequest.build(
                0.5, options={"typo": 1}, reserved=("matrix", "device")
            )
        # compare whole option names: the listing legitimately contains
        # "devices", which must not trip the hidden-"device" check
        listed = {name.strip() for name in str(err.value).split(":")[-1].split(",")}
        assert "matrix" not in listed
        assert "device" not in listed


class TestExecution:
    def test_execute_runs_the_algorithm(self, db):
        request = MiningRequest.build(0.5, algorithm="eclat")
        result = request.execute(db)
        assert result.support_of((0, 1)) == 2
        assert result.metrics.algorithm == "eclat"

    def test_runner_kwargs_merge_max_k(self):
        request = MiningRequest.build(
            0.5, max_k=2, options={"engine": "parallel"}
        )
        assert request.runner_kwargs() == {
            "config": GPAprioriConfig(engine="parallel"),
            "max_k": 2,
        }
        eclat = MiningRequest.build(0.5, algorithm="eclat", options={"diffsets": True})
        assert eclat.config is None
        assert eclat.runner_kwargs() == {"diffsets": True}


class TestIdentity:
    def test_signature_is_hashable_and_stable(self):
        a = MiningRequest.build(0.5, options={"engine": "vectorized"})
        b = MiningRequest.build(0.5, options={"engine": "vectorized"})
        assert a.signature() == b.signature()
        hash(a.signature())

    def test_as_dict_is_the_http_body_layout(self):
        request = MiningRequest.build(
            2,
            algorithm="gpapriori",
            dataset="toy",
            max_k=3,
            options={"engine": "simulated"},
        )
        assert request.as_dict() == {
            "dataset": "toy",
            "min_support": 2,
            "algorithm": "gpapriori",
            "max_k": 3,
            "engine": "simulated",
        }


class TestConfigResolution:
    def test_config_and_fields_together_raise_mining_error(self, db):
        # used to escape as a bare TypeError from gpapriori_mine
        with pytest.raises(MiningError, match="not both"):
            mine(db, 0.5, config=GPAprioriConfig(), engine="parallel")

    def test_config_must_be_a_config(self, db):
        with pytest.raises(MiningError, match="GPAprioriConfig"):
            mine(db, 0.5, config={"engine": "parallel"})

    def test_bad_field_value_is_a_config_error(self):
        with pytest.raises(ConfigError, match="engine"):
            MiningRequest.build(0.5, options={"engine": "tpu"})

    def test_config_and_fields_share_signature(self):
        spelled = MiningRequest.build(
            0.5, dataset="toy", options={"engine": "parallel", "workers": 2}
        )
        boxed = MiningRequest.build(
            0.5,
            dataset="toy",
            options={"config": GPAprioriConfig(engine="parallel", workers=2)},
        )
        assert spelled.signature() == boxed.signature()
        assert spelled.signature() == MiningRequest.build(
            0.5, dataset="toy", options={"workers": 2, "engine": "parallel"}
        ).signature()

    def test_defaults_fold_into_field_spelled_config(self):
        def defaults(fields):
            return {"layout": "hybrid", **fields}

        request = MiningRequest.build(0.5, options={}, defaults=defaults)
        assert request.config.layout == "hybrid"
        own = MiningRequest.build(
            0.5, options={"layout": "dense"}, defaults=defaults
        )
        assert own.config.layout == "dense"

    def test_unhashable_option_value_raises_mining_error(self):
        request = MiningRequest.build(
            0.5, algorithm="eclat", options={"diffsets": [1]}
        )
        with pytest.raises(MiningError, match="hashable"):
            request.signature()


class TestServiceCacheKey:
    def test_defaulted_and_spelled_devices_share_one_entry(self, db):
        with MiningService(workers=1, devices=2, maintenance_interval=None) as svc:
            svc.register_dataset("toy", db)
            first = svc.query("toy", 2, engine="multigpu")
            assert first.source == "cold"
            again = svc.query("toy", 2, engine="multigpu", devices=2)
            assert again.source == "cache"
            other = svc.query("toy", 2, engine="multigpu", devices=3)
            assert other.source == "cold"
