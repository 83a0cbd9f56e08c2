"""Shared evidence trail for graceful degradation.

Every place the system falls back to a weaker-but-safer strategy —
``MiningService`` re-mining under a halved, sharded memory budget after
a device OOM, ``ParallelEngine`` abandoning a thread pool it cannot use
for the in-process path — funnels through :func:`record_degradation` so
the three evidence channels always agree: a ``service.degraded.*``
metric, a structured ``service.degraded`` log event, and a span the
flight recorder keeps with the query that degraded.

This lives in :mod:`repro.faults` rather than :mod:`repro.service`
because the core engines must be importable without dragging in the
service layer.
"""

from __future__ import annotations

import logging
from typing import Any

from ..obs.logging import get_logger, log_event
from ..obs.tracer import span

__all__ = ["record_degradation"]


def record_degradation(
    metrics,
    *,
    site: str,
    from_mode: str,
    to_mode: str,
    reason: str,
    **attrs: Any,
) -> None:
    """Emit the metric + log + span triple for one degradation step.

    ``metrics`` may be None (bare engine use outside the service); the
    log event and span still fire so the evidence survives.
    """
    if metrics is not None:
        metrics.inc("service.degraded.total")
        metrics.inc(
            "service.degraded.events",
            labels={"site": site, "from": from_mode, "to": to_mode},
        )
    log_event(
        get_logger("faults.degrade"),
        logging.WARNING,
        "service.degraded",
        site=site,
        from_mode=from_mode,
        to_mode=to_mode,
        reason=reason,
        **attrs,
    )
    with span(
        "service.degraded",
        site=site,
        from_mode=from_mode,
        to_mode=to_mode,
        reason=reason,
        **attrs,
    ):
        pass
