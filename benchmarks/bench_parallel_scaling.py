"""Worker-count scaling of the parallel thread-pool counting engine.

The paper's scaling argument (Section V) is that support counting is
embarrassingly data-parallel: more lanes, proportionally more counted
candidates per second. This bench replays that argument on host cores
with :class:`~repro.core.parallel.ParallelEngine`: one synthetic
T40I10D100K-style matrix, read in place by every thread, and the same
candidate buffer counted at 1, 2, and 4 workers (the calling thread
plus 0, 1 and 3 pool threads).

The measurement deliberately isolates the engine (not end-to-end
mining): candidate generation in the trie is serial host work, so a
full mining run would be Amdahl-bound and say nothing about the
counting kernel the threads actually parallelize.

The >1.5x-at-4-workers assertion only runs when the host exposes at
least 4 usable cores; on smaller machines the bench still verifies
bit-identical supports at every worker count and records the curve.

Run it with ``PYTHONPATH=src python -m pytest
benchmarks/bench_parallel_scaling.py -q -s``; the curve is written to
``benchmarks/results/parallel_scaling.txt``.
"""

import os
import pathlib
import time

import numpy as np
import pytest

from repro.bench import render_table
from repro.bitset import BitsetMatrix
from repro.core.config import GPAprioriConfig
from repro.core.itemset import RunMetrics
from repro.core.parallel import ParallelEngine
from repro.core.support import VectorizedEngine
from repro.datasets import dataset_analog

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
WORKER_COUNTS = (1, 2, 4)
N_CANDIDATES = 1024
REPEATS = 20


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


@pytest.fixture(scope="module")
def workload():
    """A T40I10D100K-scale matrix plus a fixed pair-candidate buffer."""
    db = dataset_analog("T40I10D100K", scale=0.5)
    matrix = BitsetMatrix.from_database(db)
    rng = np.random.default_rng(11)
    pairs = rng.integers(0, matrix.n_items, size=(N_CANDIDATES, 2), dtype=np.int64)
    pairs[:, 1] = (pairs[:, 0] + 1 + pairs[:, 1] % (matrix.n_items - 1)) % matrix.n_items
    return matrix, pairs


def _time_engine(matrix, pairs, workers):
    """Best-of-N seconds for one counting pass, plus its supports."""
    cfg = GPAprioriConfig(engine="parallel", workers=workers)
    eng = ParallelEngine(cfg, RunMetrics())
    eng.min_parallel = 1
    eng.setup(matrix)
    try:
        supports = eng.count_complete(pairs)  # start the pool before timing
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            got = eng.count_complete(pairs)
            best = min(best, time.perf_counter() - t0)
        assert np.array_equal(got, supports)
        return best, supports, eng.in_process
    finally:
        eng.close()


@pytest.fixture(scope="module")
def curve(workload):
    matrix, pairs = workload
    ref = VectorizedEngine(GPAprioriConfig(), RunMetrics())
    ref.setup(matrix)
    want = ref.count_complete(pairs)
    out = {}
    rows = []
    for workers in WORKER_COUNTS:
        seconds, supports, in_process = _time_engine(matrix, pairs, workers)
        assert np.array_equal(supports, want), f"workers={workers} changed supports"
        out[workers] = seconds
        rows.append(
            (
                str(workers),
                "in-process" if in_process else "threads",
                f"{seconds * 1e3:.2f} ms",
                f"{out[1] / seconds:.2f}x",
                f"{N_CANDIDATES / seconds:,.0f}",
            )
        )
    report = "\n".join(
        [
            "parallel engine worker scaling "
            f"(T40I10D100K analog, {matrix.n_items} items x {matrix.n_words} words, "
            f"{N_CANDIDATES} pair candidates, host cores={_usable_cores()}):",
            render_table(
                ["workers", "mode", "best pass", "speedup vs 1", "cands/s"], rows
            ),
        ]
    )
    print("\n" + report)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "parallel_scaling.txt").write_text(report + "\n")
    return out


def test_supports_identical_at_every_worker_count(curve):
    """The fixture already cross-checked each run against the
    vectorized engine; reaching here means every count agreed."""
    assert set(curve) == set(WORKER_COUNTS)


def test_speedup_at_four_workers(curve):
    """Paper-style scaling claim, only meaningful with >= 4 real cores."""
    if _usable_cores() < 4:
        pytest.skip(f"host exposes {_usable_cores()} usable cores; need >= 4")
    assert curve[1] / curve[4] > 1.5, (
        f"expected >1.5x at 4 workers, got {curve[1] / curve[4]:.2f}x"
    )
