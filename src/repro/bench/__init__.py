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

from .runner import RunRecord, SweepResult, run_algorithm, support_sweep
from .figures import FigureSeries, build_figure6, speedup_table
from .tables import table1_rows, table2_rows
from .report import render_table, render_figure
from .ascii_plot import ascii_chart, figure6_chart

__all__ = [
    "RunRecord",
    "SweepResult",
    "run_algorithm",
    "support_sweep",
    "FigureSeries",
    "build_figure6",
    "speedup_table",
    "table1_rows",
    "table2_rows",
    "render_table",
    "render_figure",
    "ascii_chart",
    "figure6_chart",
]
