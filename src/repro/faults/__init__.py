"""Deterministic fault injection for chaos-testing the mining stack.

Three pieces:

* :mod:`repro.faults.plan` — frozen, seeded :class:`FaultPlan` /
  :class:`FaultSpec` data (what to break, where, how often);
* :mod:`repro.faults.injection` — the runtime: ``fault_point(site)``
  hooks wired into the simulator, parallel engine, and scheduler, plus
  :func:`inject` / :func:`install` activation;
* :mod:`repro.faults.degrade` — the shared evidence trail every
  graceful-degradation step emits.

Disabled cost is one module-global read per fault point, held under 2%
of a clean mine by ``benchmarks/bench_fault_overhead.py``.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".degrade": ("record_degradation",),
        ".injection": (
            "FaultSession",
            "active_session",
            "fault_point",
            "inject",
            "install",
            "uninstall",
        ),
        ".plan": ("FAULT_KINDS", "FAULT_SITES", "FaultPlan", "FaultSpec", "parse_fault_spec"),
    },
)
