"""Concurrency regression tests for the metrics registry and tracer.

The mining service hammers one shared :class:`MetricsRegistry` and one
:class:`Tracer` from its worker pool; before the service landed,
``MetricsRegistry.observe`` mutated ``HistogramSummary`` objects
*outside* the registry lock — a silent lost-update race. These tests
fail (intermittently but reliably at this iteration count) against the
unlocked versions.
"""

import threading

import pytest

from repro.obs import MetricsRegistry, Tracer

THREADS = 8
OPS = 2_000


def _hammer(n_threads, fn):
    barrier = threading.Barrier(n_threads)
    errors = []

    def run(tid):
        barrier.wait()
        try:
            fn(tid)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []


class TestMetricsRegistry:
    def test_concurrent_counter_increments_are_exact(self):
        reg = MetricsRegistry()
        _hammer(THREADS, lambda tid: [reg.inc("n") for _ in range(OPS)])
        assert reg.counter("n") == THREADS * OPS

    def test_concurrent_histogram_observations_are_exact(self):
        reg = MetricsRegistry()
        _hammer(
            THREADS,
            lambda tid: [reg.observe("h", float(i)) for i in range(1, OPS + 1)],
        )
        hist = reg.snapshot()["histograms"]["h"]
        assert hist["count"] == THREADS * OPS
        assert hist["total"] == pytest.approx(THREADS * OPS * (OPS + 1) / 2)
        assert hist["min"] == 1.0
        assert hist["max"] == float(OPS)

    def test_concurrent_gauge_writes_keep_a_written_value(self):
        reg = MetricsRegistry()
        _hammer(THREADS, lambda tid: reg.set_gauge("g", float(tid)))
        assert reg.snapshot()["gauges"]["g"] in {float(i) for i in range(THREADS)}


class TestTracer:
    def test_span_ids_unique_across_worker_pool(self):
        tracer = Tracer()

        def spin(tid):
            with tracer.activate():
                for i in range(200):
                    with tracer.span(f"t{tid}.op", i=i):
                        pass

        _hammer(THREADS, spin)
        spans = tracer.finished()
        assert len(spans) == THREADS * 200
        ids = [s.span_id for s in spans]
        assert len(set(ids)) == len(ids)

    def test_threads_build_disjoint_subtrees(self):
        tracer = Tracer()

        def spin(tid):
            with tracer.activate():
                with tracer.span(f"root{tid}"):
                    with tracer.span(f"child{tid}"):
                        pass

        _hammer(4, spin)
        spans = {s.name: s for s in tracer.finished()}
        for tid in range(4):
            child, root = spans[f"child{tid}"], spans[f"root{tid}"]
            assert child.parent_id == root.span_id
            assert root.parent_id is None
