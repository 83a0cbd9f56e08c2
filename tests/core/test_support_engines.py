"""Unit tests for the vectorized and simulated counting engines."""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro.core.support as support_mod
from repro.bitset import BitsetMatrix
from repro.core.config import GPAprioriConfig
from repro.core.itemset import RunMetrics
from repro.core.support import SimulatedEngine, VectorizedEngine, make_engine
from repro.datasets import TransactionDatabase
from repro.errors import BitsetError, DeviceMemoryError, KernelLaunchError, MiningError
from repro.gpusim.device import DeviceProperties


def engines(db, **cfg_over):
    matrix = BitsetMatrix.from_database(db)
    out = []
    for engine_name in ("vectorized", "simulated"):
        cfg = GPAprioriConfig(engine=engine_name, block_size=8, **cfg_over)
        eng = make_engine(cfg, RunMetrics())
        eng.setup(matrix)
        out.append(eng)
    return out


class TestMakeEngine:
    def test_dispatch(self):
        v = make_engine(GPAprioriConfig(engine="vectorized"), RunMetrics())
        s = make_engine(GPAprioriConfig(engine="simulated"), RunMetrics())
        assert isinstance(v, VectorizedEngine)
        assert isinstance(s, SimulatedEngine)

    def test_count_before_setup_raises(self):
        eng = make_engine(GPAprioriConfig(), RunMetrics())
        with pytest.raises(MiningError, match="setup"):
            eng.count_complete(np.array([[0]]))


class TestOneTable:
    # the only places where the generation-1 table's format may matter
    FORMAT_SITES = {
        "core/support.py:price_batch",  # the kernel model
        "core/support.py:SupportEngine._check_batch",  # extend is dense only
        "core/support.py:SupportEngine._charge",  # sparse_tids_probed
        "core/support.py:SimulatedEngine.setup",  # device arrays
        "core/support.py:SimulatedEngine.count_complete",  # kernel
        "core/gpapriori.py:gpapriori_mine",  # transpose attrs, layout.* gauges
    }

    def test_format_is_tested_only_at_its_sites(self):
        """No function in core/ or service/ asks which table it holds,
        outside the sites above."""
        root = Path(support_mod.__file__).parents[1]
        found = set()
        for path in [*root.glob("core/*.py"), *root.glob("service/*.py")]:
            tree = ast.parse(path.read_text())
            scopes = [("", node) for node in tree.body]
            while scopes:
                prefix, node = scopes.pop()
                if isinstance(node, ast.ClassDef):
                    scopes += [(f"{node.name}.", child) for child in node.body]
                if not isinstance(node, ast.FunctionDef):
                    continue
                for call in ast.walk(node):
                    if (
                        isinstance(call, ast.Call)
                        and getattr(call.func, "id", None) == "isinstance"
                        and {getattr(n, "id", None) for n in ast.walk(call.args[1])}
                        & {"BitsetMatrix", "HybridLayout"}
                    ):
                        found.add(f"{path.parent.name}/{path.name}:{prefix}{node.name}")
        assert found == self.FORMAT_SITES

    @pytest.mark.parametrize(
        "knobs",
        [{}, {"engine": "simulated"}, {"engine": "multigpu", "devices": 2}, {"shards": 2}],
        ids=["vectorized", "simulated", "multigpu", "sharded"],
    )
    def test_setup_installs_either_table(self, paper_db, knobs):
        from repro.bitset.hybrid import HybridLayout

        matrix = BitsetMatrix.from_database(paper_db)
        cands = np.array([[1, 4], [3, 4], [2, 5], [0, 7]])
        got = []
        for table in (matrix, HybridLayout.from_matrix(matrix, 0.5)):
            eng = make_engine(GPAprioriConfig(**knobs), RunMetrics())
            eng.setup(table)
            assert eng.table is table
            assert (eng.n_items, eng.n_words) == (table.n_items, table.n_words)
            got.append(eng.count_complete(cands).tolist())
        assert got[0] == got[1] == [paper_db.support(c) for c in cands]


class TestCountComplete:
    def test_engines_agree(self, paper_db):
        v, s = engines(paper_db)
        cands = np.array([[1, 4], [3, 4], [2, 5], [0, 7]])
        assert np.array_equal(v.count_complete(cands), s.count_complete(cands))

    def test_matches_database(self, small_db):
        v, s = engines(small_db)
        cands = np.array([[0, 1, 2], [3, 4, 5]])
        want = [small_db.support(c) for c in cands]
        assert v.count_complete(cands).tolist() == want
        assert s.count_complete(cands).tolist() == want

    def test_empty_generation(self, paper_db):
        v, s = engines(paper_db)
        empty = np.empty((0, 2), dtype=np.int32)
        assert v.count_complete(empty).size == 0
        assert s.count_complete(empty).size == 0

    def test_identical_modeled_costs(self, paper_db):
        """Both engines charge the same modeled hardware time."""
        v, s = engines(paper_db)
        cands = np.array([[1, 4], [3, 4]])
        v.count_complete(cands)
        s.count_complete(cands)
        assert v.metrics.modeled_breakdown == pytest.approx(
            s.metrics.modeled_breakdown
        )

    def test_counters_recorded(self, paper_db):
        v, _ = engines(paper_db)
        v.count_complete(np.array([[1, 4]]))
        c = v.metrics.counters
        assert c["candidates_counted"] == 1
        assert c["bitset_words_anded"] == 2 * v.table.n_words


class TestZeroWordTables:
    """A table of zero words per row (zero transactions, built by hand)
    counts zero supports and charges nothing on every in-process engine."""

    @pytest.mark.parametrize("engine_name", ["vectorized", "parallel", "simulated"])
    @pytest.mark.parametrize("layout", ["dense", "hybrid"])
    def test_zero_supports_no_charge(self, engine_name, layout):
        from repro.bitset.hybrid import HybridLayout

        metrics = RunMetrics()
        eng = make_engine(GPAprioriConfig(engine=engine_name, workers=2), metrics)
        if layout == "hybrid":
            eng.setup(HybridLayout.from_parts(
                np.zeros((2, 0), np.uint32), [0, 1], [], [0], 0
            ))
        else:
            eng.setup(BitsetMatrix(np.zeros((2, 0), np.uint32), 0))
        before = (metrics.counters, metrics.modeled_seconds)
        try:
            assert eng.count_complete(np.array([[0, 1], [1, 1], [0, 0]])).tolist() == [0, 0, 0]
            if layout == "dense":
                assert eng.count_extend(np.array([[0, 1], [1, 0]])).tolist() == [0, 0]
                eng.retain(np.array([1]))
                assert eng.count_extend(np.array([[0, 1]])).tolist() == [0]
                before[0]["prefix_rows_resident_bytes"] = 0
        finally:
            eng.close()
        assert (metrics.counters, metrics.modeled_seconds) == before


class TestCountExtend:
    def test_engines_agree(self, paper_db):
        v, s = engines(paper_db)
        pairs = np.array([[1, 4], [3, 5]])
        assert np.array_equal(v.count_extend(pairs), s.count_extend(pairs))

    def test_retain_then_extend_deeper(self, paper_db):
        """Gen-2 retain -> gen-3 extension produces 3-itemset supports."""
        for eng in engines(paper_db):
            s2 = eng.count_extend(np.array([[3, 4], [4, 5]]))
            assert s2.tolist() == [
                paper_db.support([3, 4]),
                paper_db.support([4, 5]),
            ]
            eng.retain(np.array([0, 1]))
            s3 = eng.count_extend(np.array([[0, 5], [1, 3]]))
            assert s3.tolist() == [
                paper_db.support([3, 4, 5]),
                paper_db.support([3, 4, 5]),
            ]

    def test_retain_without_extend_raises(self, paper_db):
        for eng in engines(paper_db):
            with pytest.raises(MiningError, match="retain"):
                eng.retain(np.array([0]))

    def test_bad_pairs_shape(self, paper_db):
        v, _ = engines(paper_db)
        with pytest.raises(MiningError, match="\\(n, 2\\)"):
            v.count_extend(np.array([[1, 2, 3]]))

    def test_prefix_cache_counter(self, paper_db):
        v, _ = engines(paper_db)
        v.count_extend(np.array([[3, 4]]))
        v.retain(np.array([0]))
        assert v.metrics.counters["prefix_rows_resident_bytes"] > 0


class TestSimulatedDeviceLimits:
    def test_prefix_cache_oom_on_tiny_device(self, small_db):
        """Equivalence-class caching can exceed device memory — the
        failure mode the paper's complete-intersection design avoids."""
        tiny = DeviceProperties(
            name="tiny",
            sm_count=1,
            cores_per_sm=8,
            clock_hz=1e9,
            global_mem_bytes=4_000,  # fits the bitsets, not the cache
            mem_bandwidth_bytes=1e9,
            shared_mem_per_block=16 << 10,
            max_threads_per_block=512,
            warp_size=32,
            compute_capability=(1, 3),
            pcie_bandwidth_bytes=1e9,
            pcie_latency_s=1e-6,
            kernel_launch_overhead_s=1e-6,
        )
        matrix = BitsetMatrix.from_database(small_db)
        assert matrix.nbytes < 4_000
        eng = SimulatedEngine(
            GPAprioriConfig(engine="simulated", block_size=8), RunMetrics(), tiny
        )
        eng.setup(matrix)
        pairs = np.array([[i, (i + 1) % 12] for i in range(12)] * 6)
        with pytest.raises(DeviceMemoryError):
            eng.count_extend(pairs)

    def test_block_dim_shrinks_to_words(self, paper_db):
        """Functional block size never exceeds useful lane count."""
        matrix = BitsetMatrix.from_database(paper_db)
        eng = SimulatedEngine(
            GPAprioriConfig(engine="simulated", block_size=512), RunMetrics()
        )
        eng.setup(matrix)
        assert eng._block_dim() == matrix.n_words  # 16 words < 512

    def test_coalescing_report_requires_trace(self, paper_db):
        matrix = BitsetMatrix.from_database(paper_db)
        eng = SimulatedEngine(
            GPAprioriConfig(engine="simulated", block_size=8), RunMetrics()
        )
        eng.setup(matrix)
        eng.count_complete(np.array([[3, 4]]))
        assert eng.coalescing_report() is None

    def test_coalescing_report_with_trace(self, paper_db):
        matrix = BitsetMatrix.from_database(paper_db)
        eng = SimulatedEngine(
            GPAprioriConfig(engine="simulated", block_size=8, trace_accesses=True),
            RunMetrics(),
        )
        eng.setup(matrix)
        eng.count_complete(np.array([[3, 4]]))
        rep = eng.coalescing_report()
        assert rep is not None
        assert rep.n_accesses > 0

    def test_complete_chunks_under_memory_pressure(self, small_db):
        """A generation whose candidate buffer exceeds free device
        memory is processed in multiple launches, with results identical
        to the unconstrained run."""
        matrix = BitsetMatrix.from_database(small_db)
        tight = DeviceProperties(
            name="tight",
            sm_count=1,
            cores_per_sm=8,
            clock_hz=1e9,
            # bitsets + room for only ~half the candidate buffers
            global_mem_bytes=matrix.nbytes + 1024,
            mem_bandwidth_bytes=1e9,
            shared_mem_per_block=16 << 10,
            max_threads_per_block=512,
            warp_size=32,
            compute_capability=(1, 3),
            pcie_bandwidth_bytes=1e9,
            pcie_latency_s=1e-6,
            kernel_launch_overhead_s=1e-6,
        )
        eng = SimulatedEngine(
            GPAprioriConfig(engine="simulated", block_size=8), RunMetrics(), tight
        )
        eng.setup(matrix)
        cands = np.array(
            [[i, j] for i in range(12) for j in range(i + 1, 12)], dtype=np.int32
        )
        got = eng.count_complete(cands)
        assert eng.metrics.counters["kernel.launches"] > 1, "memory pressure must chunk"
        want = [small_db.support(c) for c in cands]
        assert got.tolist() == want

    def test_kernel_stats_recorded(self, paper_db):
        matrix = BitsetMatrix.from_database(paper_db)
        eng = SimulatedEngine(
            GPAprioriConfig(engine="simulated", block_size=8), RunMetrics()
        )
        eng.setup(matrix)
        eng.count_complete(np.array([[3, 4], [1, 2]]))
        counters = eng.metrics.counters
        assert counters["kernel.launches"] == 1
        assert counters["kernel.blocks"] == 2
        assert counters["kernel.barriers"] > 0


def _device(capacity):
    """A 1-SM device sheet with an exact global-memory capacity."""
    return DeviceProperties(
        name="tight",
        sm_count=1,
        cores_per_sm=8,
        clock_hz=1e9,
        global_mem_bytes=capacity,
        mem_bandwidth_bytes=1e9,
        shared_mem_per_block=16 << 10,
        max_threads_per_block=512,
        warp_size=32,
        compute_capability=(1, 3),
        pcie_bandwidth_bytes=1e9,
        pcie_latency_s=1e-6,
        kernel_launch_overhead_s=1e-6,
    )


def _sim_engine(db, capacity=None):
    matrix = BitsetMatrix.from_database(db)
    device = _device(capacity) if capacity is not None else None
    args = (GPAprioriConfig(engine="simulated", block_size=8), RunMetrics())
    eng = SimulatedEngine(*args, device) if device else SimulatedEngine(*args)
    eng.setup(matrix)
    return eng


ALL_PAIRS = np.array([[i, j] for i in range(12) for j in range(i + 1, 12)])


class TestDeviceMemoryBalance:
    """Regression tests: failed launches must not leak device buffers."""

    def _boom(self, *args, **kwargs):
        raise KernelLaunchError("injected launch failure")

    def test_failed_complete_launch_leaves_memory_balanced(
        self, small_db, monkeypatch
    ):
        eng = _sim_engine(small_db)
        before = eng.memory.bytes_in_use
        monkeypatch.setattr(support_mod, "launch_kernel", self._boom)
        with pytest.raises(KernelLaunchError):
            eng.count_complete(ALL_PAIRS)
        assert eng.memory.bytes_in_use == before

    def test_failed_extend_launch_leaves_memory_balanced(self, small_db, monkeypatch):
        eng = _sim_engine(small_db)
        before = eng.memory.bytes_in_use
        monkeypatch.setattr(support_mod, "launch_kernel", self._boom)
        with pytest.raises(KernelLaunchError):
            eng.count_extend(ALL_PAIRS)
        assert eng.memory.bytes_in_use == before

    def test_failed_htod_leaves_memory_balanced(self, small_db, monkeypatch):
        eng = _sim_engine(small_db)
        before = eng.memory.bytes_in_use

        def bad_htod(buf, arr):
            raise DeviceMemoryError("injected transfer failure")

        monkeypatch.setattr(eng.memory, "htod", bad_htod)
        with pytest.raises(DeviceMemoryError):
            eng.count_complete(ALL_PAIRS)
        assert eng.memory.bytes_in_use == before

    def test_engine_usable_after_failed_launch(self, small_db, monkeypatch):
        """A failed generation must not poison subsequent generations."""
        eng = _sim_engine(small_db)
        real = support_mod.launch_kernel
        monkeypatch.setattr(support_mod, "launch_kernel", self._boom)
        with pytest.raises(KernelLaunchError):
            eng.count_complete(ALL_PAIRS)
        monkeypatch.setattr(support_mod, "launch_kernel", real)
        want = [small_db.support(c) for c in ALL_PAIRS]
        assert eng.count_complete(ALL_PAIRS).tolist() == want


class TestExtendChunking:
    def test_extend_chunks_under_memory_pressure(self, small_db):
        """An extension generation whose scratch buffers exceed free
        device memory runs in multiple launches with results identical
        to the unconstrained run."""
        matrix = BitsetMatrix.from_database(small_db)
        out_rows_bytes = ALL_PAIRS.shape[0] * matrix.n_words * 4
        tight = _sim_engine(
            small_db, capacity=matrix.nbytes + out_rows_bytes + 600
        )
        roomy = _sim_engine(small_db)
        want = roomy.count_extend(ALL_PAIRS)
        got = tight.count_extend(ALL_PAIRS)
        assert tight.metrics.counters["kernel.launches"] > 1, "memory pressure must chunk"
        assert np.array_equal(got, want)
        # the chunked prefix cache must behave exactly like the whole one:
        keep = np.arange(0, ALL_PAIRS.shape[0], 3)
        tight.retain(keep)
        roomy.retain(keep)
        deeper = np.array([[i, 11] for i in range(keep.size)])
        assert np.array_equal(tight.count_extend(deeper), roomy.count_extend(deeper))

    def test_unchunkable_launch_raises_clean_oom(self, small_db):
        """When not even a one-candidate chunk fits, the engine raises a
        DeviceMemoryError naming the shortfall — and leaks nothing."""
        matrix = BitsetMatrix.from_database(small_db)
        eng = _sim_engine(small_db, capacity=matrix.nbytes + 512)
        before = eng.memory.bytes_in_use
        with pytest.raises(DeviceMemoryError, match="cannot chunk"):
            eng.count_complete(ALL_PAIRS)
        assert eng.memory.bytes_in_use == before


class TestRetainValidation:
    """Out-of-range retain() indices raise MiningError, not IndexError,
    and must not corrupt the prefix cache."""

    @pytest.mark.parametrize("engine_name", ["vectorized", "simulated"])
    def test_out_of_range_raises_mining_error(self, paper_db, engine_name):
        matrix = BitsetMatrix.from_database(paper_db)
        eng = make_engine(
            GPAprioriConfig(engine=engine_name, block_size=8), RunMetrics()
        )
        eng.setup(matrix)
        eng.count_extend(np.array([[3, 4], [4, 5]]))
        with pytest.raises(MiningError, match="out of range"):
            eng.retain(np.array([0, 2]))  # only rows 0-1 pending
        with pytest.raises(MiningError, match="out of range"):
            eng.retain(np.array([-1]))

    @pytest.mark.parametrize("engine_name", ["vectorized", "simulated"])
    def test_failed_retain_preserves_pending_state(self, paper_db, engine_name):
        matrix = BitsetMatrix.from_database(paper_db)
        eng = make_engine(
            GPAprioriConfig(engine=engine_name, block_size=8), RunMetrics()
        )
        eng.setup(matrix)
        eng.count_extend(np.array([[3, 4], [4, 5]]))
        with pytest.raises(MiningError):
            eng.retain(np.array([99]))
        eng.retain(np.array([0, 1]))  # pending generation still consumable
        s3 = eng.count_extend(np.array([[0, 5], [1, 3]]))
        assert s3.tolist() == [
            paper_db.support([3, 4, 5]),
            paper_db.support([3, 4, 5]),
        ]

    @pytest.mark.parametrize("engine_name", ["vectorized", "simulated"])
    def test_non_1d_indices_raise(self, paper_db, engine_name):
        matrix = BitsetMatrix.from_database(paper_db)
        eng = make_engine(
            GPAprioriConfig(engine=engine_name, block_size=8), RunMetrics()
        )
        eng.setup(matrix)
        eng.count_extend(np.array([[3, 4], [4, 5]]))
        with pytest.raises(MiningError, match="1-D"):
            eng.retain(np.array([[0], [1]]))


class TestBatchValidation:
    """Every base engine rejects a malformed batch with the same typed
    error before doing any work."""

    BAD_BATCHES = [
        ("count_extend", [[-1, 2]], MiningError),  # negative prefix row
        ("count_extend", [[9, 2]], MiningError),  # prefix row past the table
        ("count_extend", [[1, 9]], BitsetError),  # item id past the table
        ("count_extend", [[1, -1]], BitsetError),  # negative item id
        ("count_extend", [[1, 2, 3]], MiningError),  # not (n, 2)
        ("count_extend", [1, 2], MiningError),  # not 2-D
        ("count_complete", np.zeros((3, 0), dtype=np.int64), BitsetError),
        ("count_complete", [[0, 9]], BitsetError),
        ("count_complete", [[-1, 0]], BitsetError),
        ("count_complete", [0, 1], BitsetError),  # not 2-D
    ]

    @pytest.mark.parametrize("engine_name", ["vectorized", "parallel", "simulated"])
    @pytest.mark.parametrize("method, batch, error", BAD_BATCHES)
    def test_bad_batch_raises_typed_error(self, engine_name, method, batch, error):
        db = TransactionDatabase([[0, 1, 2], [1, 2, 3], [0, 2, 3], [0, 1, 3]])
        metrics = RunMetrics()
        eng = make_engine(
            GPAprioriConfig(engine=engine_name, workers=2, block_size=8), metrics
        )
        eng.setup(BitsetMatrix.from_database(db))
        try:
            with pytest.raises(error):
                getattr(eng, method)(np.asarray(batch))
            assert metrics.counters.get("candidates_counted", 0) == 0
        finally:
            getattr(eng, "close", lambda: None)()
