"""Golden traces: the instrumented pipeline emits the spans it promises."""

from __future__ import annotations

import pytest

from repro.bench.runner import run_algorithm
from repro.core.api import mine
from repro.core.config import GPAprioriConfig
from repro.core.gpapriori import gpapriori_mine
from repro.datasets.synthetic import dataset_analog
from repro.obs import Tracer, phase_totals, trace_coverage


def traced_mine(db, min_support, **kwargs):
    tracer = Tracer()
    with tracer.activate():
        result = gpapriori_mine(db, min_support, **kwargs)
    return result, tracer


class TestGPAprioriGolden:
    def test_span_tree_shape(self, small_db):
        result, tracer = traced_mine(small_db, 0.3)
        roots = tracer.roots()
        assert [r.name for r in roots] == ["mining_run"]
        root = roots[0]
        assert root.attrs["algorithm"] == "gpapriori"
        assert root.attrs["engine"] == "vectorized"
        names = {s.name for s in tracer.finished()}
        assert {"transpose", "install", "generation", "prune", "kernel_launch"} <= names

    def test_generation_spans_per_generation(self, small_db):
        result, tracer = traced_mine(small_db, 0.3)
        gen_spans = [s for s in tracer.finished() if s.name == "generation"]
        ks = [s.attrs["k"] for s in gen_spans]
        assert ks == sorted(ks)
        assert ks[0] == 1
        # one generation span per recorded generation, plus possibly one
        # empty-candidate generation that broke before counting
        assert len(gen_spans) in (
            len(result.metrics.generations),
            len(result.metrics.generations) + 1,
        )

    def test_kernel_launch_attrs(self, small_db):
        result, tracer = traced_mine(small_db, 0.3)
        launches = [s for s in tracer.finished() if s.name == "kernel_launch"]
        assert launches
        for sp in launches:
            assert sp.attrs["candidates"] > 0
            assert sp.attrs["k"] >= 1
            assert sp.attrs["modeled_kernel_seconds"] > 0.0
            assert "modeled_htod_seconds" in sp.attrs
            assert "modeled_dtoh_seconds" in sp.attrs

    def test_trace_covers_wall_clock(self, small_db):
        result, tracer = traced_mine(small_db, 0.3)
        coverage = trace_coverage(tracer, result.metrics.wall_seconds)
        assert coverage >= 0.95

    def test_simulated_engine_emits_device_spans(self, paper_db):
        config = GPAprioriConfig(engine="simulated")
        result, tracer = traced_mine(paper_db, 2, config=config)
        names = {s.name for s in tracer.finished()}
        assert "kernel_exec" in names
        assert "htod" in names
        exec_spans = [s for s in tracer.finished() if s.name == "kernel_exec"]
        for sp in exec_spans:
            assert sp.attrs["blocks_run"] > 0
            assert sp.attrs["threads_run"] > 0

    def test_disabled_tracing_identical_results(self, small_db):
        traced_result, _ = traced_mine(small_db, 0.3)
        plain_result = gpapriori_mine(small_db, 0.3)
        assert plain_result.as_dict() == traced_result.as_dict()


class TestSpanContract:
    """The phase names the end-to-end benchmark attributes time to."""

    PHASES = {
        "mining_run", "transpose", "install", "generation",
        "candidate_gen", "prune", "kernel_launch",
    }

    def test_mine_emits_exactly_the_known_phases(self):
        db = dataset_analog("chess", scale=0.05)
        tracer = Tracer()
        with tracer.activate():
            result = mine(db, 0.8, layout="dense", engine="vectorized")
        assert len(result.metrics.generations) >= 3
        spans = tracer.finished()
        assert [s.name for s in tracer.roots()] == ["mining_run"]
        assert {s.name for s in spans} == self.PHASES
        totals = phase_totals(tracer)
        run = tracer.roots()[0].duration
        assert sum(totals[name] for name in self.PHASES) / run >= 0.95


class TestAllAlgorithmsEmitRoots:
    ALGOS = [
        "gpapriori",
        "cpu_bitset",
        "bodon",
        "goethals",
        "borgelt",
        "eclat",
        "fpgrowth",
        "partition",
        "hybrid",
        "gpu_eclat",
    ]

    @pytest.mark.parametrize("algorithm", ALGOS)
    def test_mining_run_root(self, small_db, algorithm):
        tracer = Tracer()
        with tracer.activate():
            result = mine(small_db, 0.3, algorithm=algorithm)
        roots = tracer.roots()
        assert [r.name for r in roots] == ["mining_run"]
        assert roots[0].attrs["algorithm"] == result.metrics.algorithm
        assert roots[0].duration > 0.0
        # wall clock is still recorded by the shared helper
        assert result.metrics.wall_seconds > 0.0
        assert trace_coverage(tracer, result.metrics.wall_seconds) >= 0.95


class TestGenerationsDedup:
    def test_engine_generations_not_double_recorded(self, small_db):
        """RunMetrics.generations holds one entry per generation."""
        result = gpapriori_mine(small_db, 0.3)
        gens = result.metrics.generations
        # generation 1 counts every item exactly once
        assert gens[0] == small_db.n_items
        # strictly one entry per generation: no interleaved duplicates
        assert len(gens) == len(result.metrics.generations)
        assert all(g > 0 for g in gens)

    def test_kernel_counters_published(self, small_db):
        config = GPAprioriConfig(engine="simulated")
        result = gpapriori_mine(small_db, 0.3, config=config)
        counters = result.metrics.counters
        assert counters["kernel.launches"] > 0
        assert counters["transfer.htod_bytes"] > 0


class TestBenchPhaseBreakdown:
    def test_run_record_phase_seconds(self, small_db):
        record = run_algorithm(small_db, 0.3, "gpapriori")
        assert record.phase_seconds
        assert "mining_run" in record.phase_seconds
        total = sum(record.phase_seconds.values())
        assert total == pytest.approx(record.wall_seconds, rel=0.25)

    def test_reuses_active_tracer(self, small_db):
        tracer = Tracer()
        with tracer.activate():
            record = run_algorithm(small_db, 0.3, "cpu_bitset")
        assert record.phase_seconds
        # spans landed on the caller's tracer, not a private one
        assert any(s.name == "mining_run" for s in tracer.finished())
