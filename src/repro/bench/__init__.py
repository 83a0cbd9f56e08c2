"""Benchmark harness: runners, sweeps, and table/figure emitters.

The modules here regenerate the paper's evaluation artifacts:

* :mod:`~repro.bench.tables` — Table 1 (algorithms) and Table 2
  (dataset statistics);
* :mod:`~repro.bench.figures` — Figure 6(a-d): runtime/speedup versus
  minimum support per dataset, for every algorithm;
* :mod:`~repro.bench.runner` — single-run and support-sweep execution
  with wall-clock and modeled-hardware timing;
* :mod:`~repro.bench.report` and :mod:`~repro.bench.ascii_plot` —
  plain-text tables and charts used by the ``benchmarks/`` scripts and
  the CLI;
* :mod:`~repro.bench.profiler` — the ``repro profile`` report.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".runner": ("RunRecord", "SweepResult", "run_algorithm", "support_sweep"),
        ".figures": ("FigureSeries", "build_figure6", "speedup_table"),
        ".tables": ("table1_rows", "table2_rows"),
        ".report": ("render_table", "render_figure"),
        ".ascii_plot": ("ascii_chart", "figure6_chart"),
    },
)
