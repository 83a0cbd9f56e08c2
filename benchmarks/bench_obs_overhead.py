"""Telemetry overhead: full observability on vs. tracing disabled.

The tracer, metrics registry, per-query flight recorder, and
structured logger are wired permanently into the pipeline on the
argument that the disabled/enabled cost is negligible next to the
mining arithmetic. This bench holds that argument to a number: the
same T40I10D100K-small mine is timed bare (no active tracer, logging
at its silent default) and fully instrumented (active tracer capturing
every span, JSON logging enabled at INFO to a sink) in pairs, and the
median per-pair overhead must stay under 5%. Each pair runs its two
sides back to back, alternating which goes first, so drift and the
order of the two runs cancel; the median of many pairs is steady where
a min-of-N comparison swings wider than the budget on a small host.
"""

import io
import logging
import pathlib
import statistics
import time

from repro.bench import render_table
from repro.core.api import mine
from repro.datasets import dataset_analog
from repro.obs import Tracer, configure_json_logging, get_logger, log_event

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
DATASET = "T40I10D100K"
SCALE = 0.01
MIN_SUPPORT = 0.03
PAIRS = 41
OVERHEAD_BUDGET = 0.05


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_full_telemetry_overhead_under_budget():
    db = dataset_analog(DATASET, scale=SCALE)
    logger = get_logger("bench.obs")

    def bare():
        mine(db, MIN_SUPPORT)

    def instrumented():
        tracer = Tracer()
        with tracer.activate():
            result = mine(db, MIN_SUPPORT)
            log_event(
                logger,
                logging.INFO,
                "bench.mine",
                trace_id=tracer.trace_id,
                n_itemsets=len(result),
            )
        assert tracer.finished(), "tracer captured no spans"

    # JSON logging to an in-memory sink, as a serve process would run it
    sink = io.StringIO()
    handler = configure_json_logging(sink, level=logging.INFO)
    try:
        bare(), instrumented()  # warmup both paths (JIT-less, but caches)
        bare_s, instr_s = [], []
        for i in range(PAIRS):
            if i % 2:
                instr_s.append(_timed(instrumented))
                bare_s.append(_timed(bare))
            else:
                bare_s.append(_timed(bare))
                instr_s.append(_timed(instrumented))
    finally:
        logging.getLogger("repro").removeHandler(handler)

    overhead = statistics.median(i / b for b, i in zip(bare_s, instr_s)) - 1.0
    med_bare, med_instr = statistics.median(bare_s), statistics.median(instr_s)

    report = render_table(
        ["variant", "median of %d (s)" % PAIRS, "median per-pair overhead"],
        [
            ["tracing disabled", f"{med_bare:.4f}", "-"],
            ["full telemetry", f"{med_instr:.4f}", f"{100.0 * overhead:+.2f}%"],
        ],
    )
    print("\n" + report)
    assert sink.getvalue().count("\n") >= PAIRS + 1, "JSON log lines missing"
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "obs_overhead.txt").write_text(report + "\n")

    assert overhead < OVERHEAD_BUDGET, (
        f"full telemetry costs {100 * overhead:.2f}% "
        f"(budget {100 * OVERHEAD_BUDGET:.0f}%): "
        f"median bare {med_bare:.4f}s vs instrumented {med_instr:.4f}s"
    )
