"""Result assembly on dense chess: from counted levels to JSON bytes.

Once counting is fast, a dense dataset's large output sets the floor:
the chess analog at support 0.65 yields about 11k itemsets from a
counting core of a few milliseconds. :class:`~repro.core.itemset.
MiningResult` keeps the per-size arrays of ``levelwise``, checks
them with array operations and serializes them with one sort. This
bench mines the same query as the end-to-end ``chess_trie``
workload and records, as medians:

* ``mine`` — one untraced ``mine()`` call;
* ``api.outside_run`` — a traced call's time outside ``mining_run``
  (configuration, result construction and checks);
* ``prune`` — the ``prune`` spans of ``levelwise``, summed over generations;
* ``to_json`` — serializing the result.

It asserts that ``to_json()`` gives the bytes of the dict-of-tuples
serializer the columnar form replaced; no speed floor is asserted.

Run it with ``PYTHONPATH=src python -m pytest
benchmarks/bench_result_assembly.py -q -s``; the table is written to
``benchmarks/results/result_assembly.txt``.
"""

import json
import os
import pathlib
import platform
import statistics
import time

import pytest

from repro.bench import render_table
from repro.core.api import mine
from repro.datasets import dataset_analog
from repro.obs import Tracer, phase_totals, span

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
SUPPORT = 0.65
OPTIONS = {"layout": "dense", "engine": "vectorized"}
REPEATS = 15


def reference_json(result) -> str:
    """``to_json`` as written over a ``{items: support}`` dict."""
    metrics = result.metrics
    return json.dumps(
        {
            "format": "repro.mining_result/1",
            "n_transactions": result.n_transactions,
            "min_support": result.min_support,
            "algorithm": metrics.algorithm,
            "itemsets": [
                [list(items), support] for items, support in sorted(result.as_dict().items())
            ],
            "wall_seconds": metrics.wall_seconds,
            "modeled_seconds": metrics.modeled_seconds,
            "generations": list(metrics.generations),
            "counters": dict(metrics.counters),
        }
    )


@pytest.fixture(scope="module")
def db():
    return dataset_analog("chess", scale=1.0)


@pytest.fixture(scope="module")
def timings(db):
    mine(db, SUPPORT, **OPTIONS)  # warm-up: lazy imports and allocator growth
    times = {"mine": [], "api.outside_run": [], "prune": [], "to_json": []}
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = mine(db, SUPPORT, **OPTIONS)
        times["mine"].append(time.perf_counter() - t0)
        tracer = Tracer()
        with tracer.activate():
            with span("bench.mine"):
                mine(db, SUPPORT, **OPTIONS)
        totals = phase_totals(tracer)
        times["api.outside_run"].append(totals["bench.mine"])
        times["prune"].append(totals["prune"])
        t0 = time.perf_counter()
        text = result.to_json()
        times["to_json"].append(time.perf_counter() - t0)
    medians = {name: statistics.median(values) for name, values in times.items()}
    rows = [(name, f"{seconds * 1e3:.2f} ms") for name, seconds in medians.items()]
    report = "\n".join(
        [
            f"result assembly, chess analog (scale 1.0) at support {SUPPORT}, "
            f"{OPTIONS['layout']} layout, {OPTIONS['engine']} engine: "
            f"{len(result):,} itemsets, {len(text):,} JSON bytes, "
            f"median of {REPEATS}, Python {platform.python_version()}, "
            f"host cores={os.cpu_count()}:",
            render_table(["phase", "median"], rows),
        ]
    )
    print("\n" + report)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "result_assembly.txt").write_text(report + "\n")
    return result, medians


def test_to_json_matches_dict_serializer(timings):
    result, _ = timings
    assert result.to_json() == reference_json(result)


def test_every_phase_measured(timings):
    _, medians = timings
    assert all(seconds > 0 for seconds in medians.values()), medians
