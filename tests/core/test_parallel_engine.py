"""Unit tests for the parallel thread-pool counting engine."""

import ast
import os
import threading
from pathlib import Path

import numpy as np
import pytest

import repro.core.parallel as par_mod
from repro.bitset import BitsetMatrix
from repro.bitset.hybrid import HybridLayout
from repro.cli import main as cli_main
from repro.core.config import GPAprioriConfig
from repro.core.gpapriori import gpapriori_mine
from repro.core.itemset import RunMetrics
from repro.core.parallel import MAX_AUTO_WORKERS, ParallelEngine, resolve_workers
from repro.core.support import VectorizedEngine, make_engine
from repro.datasets import TransactionDatabase
from repro.errors import BitsetError, ConfigError, MiningError
from tests.property.test_prop_counting_oracle import oracle_support


def make_pair(db, workers=2, force_pool=False, **cfg_over):
    """A (vectorized, parallel) engine pair over the same matrix."""
    matrix = BitsetMatrix.from_database(db)
    vec = VectorizedEngine(GPAprioriConfig(), RunMetrics())
    vec.setup(matrix)
    cfg = GPAprioriConfig(engine="parallel", workers=workers, **cfg_over)
    eng = ParallelEngine(cfg, RunMetrics())
    if force_pool:
        eng.min_parallel = 1
    eng.setup(matrix)
    return vec, eng


@pytest.fixture
def pool_pair(small_db):
    vec, eng = make_pair(small_db, workers=2, force_pool=True)
    yield vec, eng
    eng.close()


ALL_PAIRS = np.array([[i, j] for i in range(12) for j in range(i + 1, 12)])


@pytest.fixture
def skewed_db():
    """Items 0-3 dense (~60%), items 4-15 sparse (~4%), over 1000 rows."""
    rng = np.random.default_rng(7)
    density = np.array([0.6] * 4 + [0.04] * 12)
    return TransactionDatabase.from_dense(rng.random((1000, 16)) < density)


def hybrid_engine(db):
    """A pool-forced parallel engine over the hybrid layout of ``db``."""
    layout = HybridLayout.from_database(db, 0.2)
    assert 0 < layout.n_dense < layout.n_items
    eng = ParallelEngine(GPAprioriConfig(engine="parallel", workers=2), RunMetrics())
    eng.min_parallel = 1
    eng.setup(layout)
    return eng


def pool_threads(before=()):
    """Live ``repro-parallel`` pool threads not already in ``before``."""
    return [
        t for t in threading.enumerate()
        if t.name.startswith("repro-parallel") and t not in before
    ]


class TestOneEngine:
    """ParallelEngine decides only *where* counting runs (AST-checked)."""

    TREE = ast.parse(Path(par_mod.__file__).read_text())

    def test_is_the_vectorized_engine(self):
        assert issubclass(ParallelEngine, VectorizedEngine)
        cls = next(
            n for n in self.TREE.body
            if isinstance(n, ast.ClassDef) and n.name == "ParallelEngine"
        )
        defined = {n.name for n in cls.body if isinstance(n, ast.FunctionDef)}
        assert defined.isdisjoint(
            {"count_complete", "count_extend", "retain", "_extend_rows", "_publish_prefix"}
        )

    def test_no_hybrid_layout_import(self):
        modules = [
            ("." * n.level) + (n.module or "")
            for n in ast.walk(self.TREE)
            if isinstance(n, ast.ImportFrom)
        ] + [a.name for n in ast.walk(self.TREE) if isinstance(n, ast.Import) for a in n.names]
        assert [m for m in modules if m.endswith("hybrid")] == []

    def test_one_worker_function(self):
        """Every block, on the caller and on the pool, counts with one
        call: ``support_words``, the shared counting core."""
        imported = {
            a.name
            for n in ast.walk(self.TREE)
            if isinstance(n, ast.ImportFrom) and (n.module or "").startswith("bitset")
            for a in n.names
        }
        assert imported == {"support_words"}
        called = {
            getattr(c.func, "id", None) or getattr(c.func, "attr", None)
            for c in ast.walk(self.TREE)
            if isinstance(c, ast.Call)
        }
        assert called.isdisjoint({"and_rows", "row_supports", "support_many"})
        submitted = [
            c.args[0].id
            for c in ast.walk(self.TREE)
            if isinstance(c, ast.Call) and getattr(c.func, "attr", None) == "submit"
        ]
        assert submitted == ["support_words"]


class TestResolveWorkers:
    def test_explicit_passthrough(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(1) == 1

    def test_auto_is_positive_and_capped(self):
        n = resolve_workers(0)
        assert 1 <= n <= MAX_AUTO_WORKERS

    def test_config_rejects_negative(self):
        with pytest.raises(ConfigError, match="workers"):
            GPAprioriConfig(workers=-1)

    def test_config_rejects_bool(self):
        with pytest.raises(ConfigError, match="workers"):
            GPAprioriConfig(workers=True)


class TestDispatch:
    def test_make_engine_dispatch(self):
        eng = make_engine(GPAprioriConfig(engine="parallel"), RunMetrics())
        assert isinstance(eng, ParallelEngine)

    def test_count_complete_matches_vectorized(self, pool_pair):
        vec, eng = pool_pair
        assert np.array_equal(
            eng.count_complete(ALL_PAIRS), vec.count_complete(ALL_PAIRS)
        )
        assert not eng.in_process

    def test_extend_retain_chain_matches_vectorized(self, pool_pair):
        vec, eng = pool_pair
        assert np.array_equal(eng.count_extend(ALL_PAIRS), vec.count_extend(ALL_PAIRS))
        keep = np.arange(0, ALL_PAIRS.shape[0], 2)
        eng.retain(keep)
        vec.retain(keep)
        deeper = np.array([[i, 11] for i in range(keep.size)])
        assert np.array_equal(eng.count_extend(deeper), vec.count_extend(deeper))

    def test_identical_modeled_costs(self, pool_pair):
        vec, eng = pool_pair
        vec.count_complete(ALL_PAIRS)
        eng.count_complete(ALL_PAIRS)
        assert eng.metrics.modeled_breakdown == pytest.approx(
            vec.metrics.modeled_breakdown
        )

    def test_tile_and_shm_counters(self, pool_pair):
        _, eng = pool_pair
        eng.count_complete(ALL_PAIRS)
        c = eng.metrics.counters
        assert c["parallel.tiles"] >= 2  # sharded across both workers
        assert "parallel.shm_bytes" not in c  # threads read the table in place
        assert eng.metrics.registry.gauge("parallel.workers") == 2

    def test_small_generation_stays_in_process(self, small_db):
        _, eng = make_pair(small_db, workers=2)  # default threshold
        try:
            eng.count_complete(np.array([[0, 1], [2, 3]]))
            assert eng.in_process
        finally:
            eng.close()

    def test_empty_generations(self, pool_pair):
        _, eng = pool_pair
        assert eng.count_complete(np.empty((0, 2), dtype=np.int64)).size == 0
        assert eng.count_extend(np.empty((0, 2), dtype=np.int64)).size == 0
        eng.retain(np.empty(0, dtype=np.int64))


class TestHybridPool:
    """The pool path over the hybrid layout, checked against plain sets."""

    @pytest.fixture
    def setup(self, skewed_db):
        eng = hybrid_engine(skewed_db)
        yield eng, [set(t.tolist()) for t in skewed_db]
        eng.close()

    @staticmethod
    def assert_pooled(eng):
        counters = eng.metrics.counters
        assert counters["parallel.tiles"] > 0
        assert counters.get("parallel.pool_failures", 0) == 0
        assert not eng.in_process

    def test_complete_plan(self, setup):
        eng, transactions = setup
        for k in (1, 2, 3):
            # all-dense, mixed and all-sparse candidates in one batch
            cands = np.array(
                [[(i + j * 5) % 16 for j in range(k)] for i in range(16)]
            )
            want = [oracle_support(transactions, c) for c in cands.tolist()]
            assert eng.count_complete(cands).tolist() == want
        self.assert_pooled(eng)

    def test_equivalence_plan(self, setup):
        """The equivalence plan is the dense ablation: the config refuses
        it over the hybrid layout, and an engine with a hybrid table
        installed refuses extend batches before any thread counts."""
        eng, _ = setup
        with pytest.raises(ConfigError, match="layout='dense'"):
            GPAprioriConfig(engine="parallel", plan="equivalence", layout="hybrid")
        with pytest.raises(MiningError, match="dense layout"):
            eng.count_extend(np.array([[0, 1]]))
        assert "parallel.tiles" not in eng.metrics.counters

    @pytest.mark.parametrize("plan", ["complete"])
    def test_mining_matches_oracle(self, skewed_db, plan, monkeypatch):
        monkeypatch.setattr(par_mod, "MIN_PARALLEL_CANDIDATES", 1)
        cfg = GPAprioriConfig(
            engine="parallel", workers=2, plan=plan, layout="hybrid", dense_threshold=0.2
        )
        got = gpapriori_mine(skewed_db, 20, config=cfg)
        transactions = [set(t.tolist()) for t in skewed_db]
        assert len(got) > 16  # itemsets beyond the single items
        for itemset in got:
            assert itemset.support == oracle_support(transactions, itemset.items)
        ref = gpapriori_mine(skewed_db, 20, config=cfg.with_(engine="vectorized"))
        assert got.as_dict() == ref.as_dict()
        assert got.metrics.counters["parallel.tiles"] > 0
        assert got.metrics.counters.get("parallel.pool_failures", 0) == 0


class TestValidation:
    def test_count_before_setup(self):
        eng = ParallelEngine(GPAprioriConfig(engine="parallel"), RunMetrics())
        with pytest.raises(MiningError, match="setup"):
            eng.count_complete(np.array([[0]]))

    def test_out_of_range_item(self, pool_pair):
        _, eng = pool_pair
        with pytest.raises(BitsetError):
            eng.count_complete(np.array([[0, 99]]))

    def test_bad_pairs_shape(self, pool_pair):
        _, eng = pool_pair
        with pytest.raises(MiningError, match="\\(n, 2\\)"):
            eng.count_extend(np.array([[1, 2, 3]]))

    def test_extend_prefix_row_out_of_range(self, pool_pair):
        _, eng = pool_pair
        eng.count_extend(ALL_PAIRS)
        eng.retain(np.arange(4))
        with pytest.raises(MiningError, match="prefix row"):
            eng.count_extend(np.array([[4, 0]]))  # only rows 0-3 cached

    def test_retain_without_extend(self, pool_pair):
        _, eng = pool_pair
        with pytest.raises(MiningError, match="retain"):
            eng.retain(np.array([0]))

    def test_retain_bad_index_is_mining_error_and_recoverable(self, pool_pair):
        vec, eng = pool_pair
        sup = eng.count_extend(ALL_PAIRS)
        with pytest.raises(MiningError, match="out of range"):
            eng.retain(np.array([0, ALL_PAIRS.shape[0]]))
        # the failed retain must not have consumed the pending state:
        eng.retain(np.array([0, 1]))
        vec.count_extend(ALL_PAIRS)
        vec.retain(np.array([0, 1]))
        deeper = np.array([[0, 5], [1, 7]])
        assert np.array_equal(eng.count_extend(deeper), vec.count_extend(deeper))
        assert sup.shape[0] == ALL_PAIRS.shape[0]


class TestFallback:
    def test_executor_failure_degrades_in_process(self, small_db, monkeypatch):
        def no_threads(*args, **kwargs):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(par_mod, "ThreadPoolExecutor", no_threads)
        vec, eng = make_pair(small_db, workers=2, force_pool=True)
        try:
            got = eng.count_complete(ALL_PAIRS)
            assert np.array_equal(got, vec.count_complete(ALL_PAIRS))
            # later batches stay in process without a second attempt
            assert np.array_equal(eng.count_complete(ALL_PAIRS), got)
            assert eng.in_process
            assert eng.metrics.counters["parallel.pool_failures"] == 1
            assert eng.metrics.registry.counter("service.degraded.total") == 1
        finally:
            eng.close()

    def test_workers_one_never_starts_a_thread(self, small_db):
        before = pool_threads()
        _, eng = make_pair(small_db, workers=1, force_pool=True)
        try:
            eng.count_complete(ALL_PAIRS)
            eng.count_extend(ALL_PAIRS)
            assert eng.in_process
            assert pool_threads(before) == []
        finally:
            eng.close()


class TestLifecycle:
    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs POSIX /dev/shm")
    def test_finalize_releases_pool_and_segments(self, skewed_db):
        """Seen from outside: no ``repro-parallel`` thread outlives
        finalize(), and the run leaves no /dev/shm entry. The
        hybrid run counts the installed dense block and the densified
        rows of the mixed candidates on the pool."""
        shm_before = set(os.listdir("/dev/shm"))
        threads_before = pool_threads()
        eng = hybrid_engine(skewed_db)
        mixed = np.array([[i, j] for i in range(4) for j in range(4, 8)])
        eng.count_complete(mixed)
        assert not eng.in_process
        assert pool_threads(threads_before) != []
        eng.finalize()
        assert pool_threads(threads_before) == []
        assert set(os.listdir("/dev/shm")) - shm_before == set()

    def test_failed_run_releases_pool(self, skewed_db, monkeypatch):
        """A run that raises in generation 3 shuts its pool down, even
        while the caller keeps the exception (whose traceback holds the
        engine), as a service does for its error record or a retry."""
        monkeypatch.setattr(par_mod, "MIN_PARALLEL_CANDIDATES", 1)
        real = ParallelEngine.count_complete
        calls = []

        def third_call_fails(self, candidates):
            calls.append(self.in_process)
            if len(calls) == 3:
                raise MiningError("count failed in generation 3")
            return real(self, candidates)

        monkeypatch.setattr(ParallelEngine, "count_complete", third_call_fails)
        before = pool_threads()
        cfg = GPAprioriConfig(engine="parallel", workers=2)
        with pytest.raises(MiningError, match="generation 3") as info:
            gpapriori_mine(skewed_db, 20, config=cfg)
        kept = info.value
        assert kept.__traceback__ is not None
        assert calls == [True, False, False]  # the pool ran generation 2
        assert pool_threads(before) == []

    def test_close_is_idempotent(self, small_db):
        before = pool_threads()
        _, eng = make_pair(small_db, workers=2, force_pool=True)
        eng.count_complete(ALL_PAIRS)
        assert pool_threads(before) != []
        eng.close()
        assert pool_threads(before) == []  # close() joins the pool's threads
        eng.close()

    def test_counting_after_close_still_correct(self, small_db):
        """A closed engine degrades gracefully rather than crashing."""
        vec, eng = make_pair(small_db, workers=2, force_pool=True)
        eng.close()
        # the pool is shut down, so this must count in process
        assert np.array_equal(
            eng.count_complete(ALL_PAIRS), vec.count_complete(ALL_PAIRS)
        )


class TestEndToEnd:
    @pytest.mark.parametrize("plan", ["complete", "equivalence"])
    def test_mining_matches_vectorized(self, small_db, plan):
        ref = gpapriori_mine(small_db, 6, config=GPAprioriConfig(plan=plan))
        got = gpapriori_mine(
            small_db,
            6,
            config=GPAprioriConfig(engine="parallel", workers=2, plan=plan),
        )
        assert got.as_dict() == ref.as_dict()
        assert got.metrics.modeled_breakdown == pytest.approx(
            ref.metrics.modeled_breakdown
        )

    def test_cli_engine_and_workers_flags(self, capsys):
        rc = cli_main(
            [
                "mine",
                "--dataset",
                "chess",
                "--scale",
                "0.02",
                "--min-support",
                "0.9",
                "--engine",
                "parallel",
                "--workers",
                "2",
            ]
        )
        assert rc == 0
        assert "frequent itemsets" in capsys.readouterr().out

    def test_cli_engine_flag_rejects_other_algorithms(self, capsys):
        rc = cli_main(
            [
                "mine",
                "--dataset",
                "chess",
                "--scale",
                "0.02",
                "--algorithm",
                "borgelt",
                "--engine",
                "parallel",
            ]
        )
        assert rc == 2
        assert "unknown option 'engine' for algorithm 'borgelt'" in capsys.readouterr().err
