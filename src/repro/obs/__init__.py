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

from .export import (
    TRACE_FORMATS,
    load_trace,
    render_ascii,
    spans_to_dicts,
    write_chrome_trace,
    write_jsonl,
    write_trace,
)
from .logging import (
    JsonLineFormatter,
    configure_json_logging,
    get_logger,
    log_event,
)
from .metrics import BUCKET_BOUNDS, HistogramSummary, MetricsRegistry
from .promexpo import (
    CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE,
    parse_prometheus,
    render_prometheus,
)
from .summary import PhaseStat, aggregate, phase_totals, trace_coverage
from .tracer import (
    NOOP_SPAN,
    NoopSpan,
    Span,
    Tracer,
    current_tracer,
    current_span,
    mining_run,
    span,
)

__all__ = [
    "Span",
    "NoopSpan",
    "NOOP_SPAN",
    "Tracer",
    "current_tracer",
    "current_span",
    "span",
    "mining_run",
    "MetricsRegistry",
    "HistogramSummary",
    "BUCKET_BOUNDS",
    "PROMETHEUS_CONTENT_TYPE",
    "render_prometheus",
    "parse_prometheus",
    "JsonLineFormatter",
    "configure_json_logging",
    "get_logger",
    "log_event",
    "TRACE_FORMATS",
    "spans_to_dicts",
    "write_jsonl",
    "write_chrome_trace",
    "render_ascii",
    "write_trace",
    "load_trace",
    "PhaseStat",
    "aggregate",
    "phase_totals",
    "trace_coverage",
]
