"""Cross-checks for the one batch pricer, ``repro.core.support.price_batch``.

Every estimate of a counting batch (the engines' charges, the shard
stream's overlap estimate, the fleet clock, the CPU/GPU balancer and
GPU Eclat) must price the same batch the same way.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro.core
from repro import StaticBalancer, hybrid_mine
from repro.bitset import BitsetMatrix
from repro.bitset.hybrid import HybridLayout
from repro.core.config import GPAprioriConfig
from repro.core.gpapriori import gpapriori_mine
from repro.core.gpu_eclat import gpu_eclat_mine
from repro.core.itemset import RunMetrics
from repro.core.support import make_engine, price_batch
from repro.datasets.transaction_db import TransactionDatabase
from repro.errors import MiningError
from repro.gpusim.perfmodel import GpuCostModel
from repro.obs import Tracer
from repro.obs.summary import spans_to_dicts

PRICED = {
    "support_kernel_time",
    "hybrid_support_kernel_time",
    "extend_kernel_time",
    "hybrid_extend_kernel_time",
    "count_cost_stats",
}


def _db(densities, n_transactions, seed=0) -> TransactionDatabase:
    rng = np.random.default_rng(seed)
    dense = rng.random((n_transactions, len(densities))) < np.asarray(densities)
    return TransactionDatabase.from_dense(dense)


@pytest.fixture
def skewed_db():
    """4 dense items and 16 sparse ones over 64 words (two aligned shards)."""
    return _db([0.6] * 4 + [0.03] * 16, 2048)


def _spans(tracer):
    return [(s["name"], s.get("attrs") or {}) for s in spans_to_dicts(tracer)]


class TestOnePricer:
    def test_only_price_batch_picks_the_model(self):
        """No other function in core/ calls a kernel model or the layout stats."""
        offenders = []
        for path in Path(repro.core.__file__).parent.glob("*.py"):
            tree = ast.parse(path.read_text())
            for fn in ast.walk(tree):
                if not isinstance(fn, ast.FunctionDef) or fn.name == "price_batch":
                    continue
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call):
                        f = node.func
                        name = getattr(f, "attr", None) or getattr(f, "id", None)
                        if name in PRICED:
                            offenders.append(f"{path.name}:{fn.name}:{name}")
        assert offenders == []

    def test_dense_entries_follow_the_kind(self):
        cost = GpuCostModel()
        cfg = GPAprioriConfig()
        assert price_batch("complete", 10, 3, 16, cost, cfg).dense_entries == 30
        assert price_batch("extend", 10, 2, 16, cost, cfg).dense_entries == 20

    def test_seconds_is_the_three_phases(self):
        p = price_batch("complete", 100, 3, 64, GpuCostModel(), GPAprioriConfig())
        assert p.seconds == p.htod + p.kernel + p.dtoh

    def test_unaligned_prices_uncoalesced(self):
        cost = GpuCostModel()
        args = ("complete", 5_000, 3, 2880)
        aligned = price_batch(*args, cost, GPAprioriConfig())
        unaligned = price_batch(*args, cost, GPAprioriConfig(aligned=False))
        expect = cost.support_kernel_time(5_000, 3, 2880, 256, coalescing_factor=2.0)
        assert unaligned.kernel == expect.seconds
        assert unaligned.kernel > aligned.kernel

    def test_rejects_unknown_kind(self):
        with pytest.raises(MiningError):
            price_batch("diffset", 1, 1, 1, GpuCostModel(), GPAprioriConfig())


class TestShardStreamFirstExtend:
    def test_stream_estimate_matches_inner_engine_charges(self, skewed_db):
        """Gen-2 extend under the hybrid layout: sparse base ids are priced
        through the layout, as the inner engines charge them, not as dense
        prefix rows."""
        layout = HybridLayout.from_matrix(
            BitsetMatrix.from_database(skewed_db, aligned=True), 0.1
        )
        assert (layout.n_dense, layout.n_sparse) == (4, 16)
        cfg = GPAprioriConfig(
            layout="hybrid", dense_threshold=0.1, plan="equivalence", shards=2
        )
        tracer = Tracer()
        with tracer.activate():
            gpapriori_mine(skewed_db, 20, config=cfg, max_k=2)
        spans = _spans(tracer)
        (stream,) = [a for name, a in spans if a.get("kind") == "shard_stream"]
        launches = [
            a for name, a in spans if name == "kernel_launch" and a["kind"] == "extend"
        ]
        assert [a["shard"] for a in launches] == [0, 1]
        assert stream["modeled_shard_kernel_seconds"] == [
            a["modeled_kernel_seconds"] for a in launches
        ]


class TestUnalignedPricing:
    def test_hybrid_makespan_matches_gpapriori_unaligned(self):
        db = _db([0.9, 0.8, 0.7, 0.6, 0.5], 20_000)
        cfg = GPAprioriConfig(aligned=False)
        gpu_only = hybrid_mine(db, 0.2, balancer=StaticBalancer(1.0), config=cfg)
        ref = gpapriori_mine(db, 0.2, config=cfg).metrics.modeled_breakdown
        expect = ref["htod_candidates"] + ref["kernel"] + ref["dtoh_supports"]
        got = gpu_only.metrics.modeled_breakdown["hybrid_makespan"]
        assert got == pytest.approx(expect, rel=1e-12)

    def test_gpu_eclat_prices_unaligned_extends(self):
        # three items in every transaction: the DFS launches extend
        # batches of 2, 1 (under prefix 0) and 1 pairs, in that order
        db = _db([1.0, 1.0, 1.0], 64_000)
        cfg = GPAprioriConfig(aligned=False)
        result = gpu_eclat_mine(db, 1, config=cfg)
        n_words = BitsetMatrix.from_database(db, aligned=False).n_words
        cost = GpuCostModel()
        expect = 0.0
        for n in (2, 1, 1):
            expect += cost.extend_kernel_time(n, n_words, 256, coalescing_factor=2.0).seconds
        assert result.metrics.modeled_breakdown["kernel"] == expect


class TestFleetReadsMemberShardPlan:
    def test_fleet_plan_is_the_members_plan(self, skewed_db):
        cfg = GPAprioriConfig(engine="multigpu", devices=2, shards=2)
        engine = make_engine(cfg, RunMetrics())
        engine.setup(BitsetMatrix.from_database(skewed_db, aligned=True))
        assert engine.shard_plan is engine.engines[0].plan
        assert all(m.plan == engine.shard_plan for m in engine.engines)
        assert engine.shard_plan.n_shards == 2
