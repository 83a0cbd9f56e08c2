"""repro.obs — zero-dependency tracing and metrics for the mining pipeline.

The observability layer the evaluation depends on: the paper's claims
are about *where time goes* (support counting dominates; the complete-
intersection layout avoids per-generation PCIe traffic; launches scale
with candidate counts), and this package makes those breakdowns visible
on every run instead of one opaque ``wall_seconds``.

Three pieces:

* :mod:`~repro.obs.tracer` — nested :func:`span` instrumentation with a
  context-var stack and a sub-microsecond no-op path when disabled;
* :mod:`~repro.obs.metrics` — the :class:`MetricsRegistry` that unifies
  ``RunMetrics`` counters, simulator kernel stats, and transfer stats;
* :mod:`~repro.obs.export` / :mod:`~repro.obs.summary` — JSONL, Chrome
  ``trace_event`` (Perfetto-loadable) and ASCII exporters plus per-phase
  aggregation;
* :mod:`~repro.obs.promexpo` — Prometheus text exposition of the whole
  registry (served at ``GET /metrics`` by ``repro serve``);
* :mod:`~repro.obs.logging` — structured JSON logging correlated with
  traces via ``query_id`` / ``trace_id`` fields.

Typical use::

    from repro.obs import Tracer, write_trace

    tracer = Tracer()
    with tracer.activate():
        result = mine(db, 0.8)
    write_trace(tracer, "run.json", fmt="chrome")
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".tracer": (
            "Span",
            "NoopSpan",
            "NOOP_SPAN",
            "Tracer",
            "current_tracer",
            "current_span",
            "span",
            "mining_run",
        ),
        ".metrics": ("MetricsRegistry", "HistogramSummary", "BUCKET_BOUNDS"),
        ".promexpo": ("PROMETHEUS_CONTENT_TYPE", "render_prometheus", "parse_prometheus"),
        ".logging": (
            "JsonLineFormatter",
            "configure_json_logging",
            "get_logger",
            "log_event",
        ),
        ".export": (
            "TRACE_FORMATS",
            "spans_to_dicts",
            "write_jsonl",
            "write_chrome_trace",
            "render_ascii",
            "write_trace",
            "load_trace",
        ),
        ".summary": ("PhaseStat", "aggregate", "phase_totals", "trace_coverage"),
    },
)
