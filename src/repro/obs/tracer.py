"""Nested-span tracing with a context-var stack and a no-op fast path.

The tracing model is deliberately tiny — it has to sit inside the
mining hot loops without distorting what it measures:

* a :class:`Span` is one timed region with a name, free-form
  attributes, and a parent — spans nest via a :mod:`contextvars` stack,
  so the tree is correct per thread *and* per async context;
* a :class:`Tracer` collects finished spans; nothing is global except
  the *active tracer* context variable, so concurrent runs (threads,
  tests) never interleave their traces;
* when no tracer is active, :func:`span` returns a shared
  :data:`NOOP_SPAN` singleton — one context-var read and no allocation,
  well under a microsecond per call, so instrumentation can stay
  permanently wired into the pipeline.

Timestamps come from :func:`time.perf_counter`; they are monotonic and
only meaningful relative to other spans of the same trace, which is all
the exporters need.
"""

from __future__ import annotations

import threading
import time
import uuid
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional

__all__ = [
    "Span",
    "NoopSpan",
    "NOOP_SPAN",
    "Tracer",
    "current_tracer",
    "current_span",
    "span",
    "mining_run",
]

_ACTIVE: ContextVar[Optional["Tracer"]] = ContextVar("repro_obs_tracer", default=None)
_CURRENT: ContextVar[Optional["Span"]] = ContextVar("repro_obs_span", default=None)


class NoopSpan:
    """Inert stand-in returned by :func:`span` when tracing is off.

    Supports the full span surface (context manager, :meth:`set`) so
    instrumented code never branches on whether tracing is enabled.
    """

    __slots__ = ()
    enabled = False

    def set(self, **attrs: Any) -> "NoopSpan":
        return self

    def __enter__(self) -> "NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "NoopSpan()"


NOOP_SPAN = NoopSpan()
"""The shared disabled span; :func:`span` returns it when no tracer is active."""


class Span:
    """One timed region of a trace.

    Created by :meth:`Tracer.span` and used as a context manager; the
    clock starts at ``__enter__`` and stops at ``__exit__``, after which
    the span is appended to its tracer's finished list.
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "depth",
        "thread",
        "attrs",
        "t_start",
        "t_end",
        "_tracer",
        "_token",
    )
    enabled = True

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        depth: int,
        thread: str,
        attrs: Dict[str, Any],
        tracer: "Tracer",
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self.thread = thread
        self.attrs = attrs
        self.t_start: Optional[float] = None
        self.t_end: Optional[float] = None
        self._tracer = tracer
        self._token = None

    @property
    def duration(self) -> float:
        """Seconds between enter and exit (0.0 while still open)."""
        if self.t_start is None or self.t_end is None:
            return 0.0
        return self.t_end - self.t_start

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes discovered mid-span (counts, costs, ...)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self._token = _CURRENT.set(self)
        self.t_start = self._tracer.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.t_end = self._tracer.clock()
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._finish(self)
        return False

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form shared by every exporter."""
        return {
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "depth": self.depth,
            "thread": self.thread,
            "start": self.t_start,
            "end": self.t_end,
            "duration": self.duration,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id}, "
            f"duration={self.duration:.6f})"
        )


class Tracer:
    """Collects finished spans for one run (or one CLI invocation).

    Thread-safe: span ids and the finished list are guarded by a lock,
    and the open-span stack lives in context variables, so worker
    threads that activate the same tracer produce disjoint subtrees.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.trace_id = uuid.uuid4().hex[:16]
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._next_id = 0

    def span(self, name: str, **attrs: Any) -> Span:
        """Create an (unentered) span under the caller's current span."""
        parent = _CURRENT.get()
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        if parent is not None:
            parent_id, depth = parent.span_id, parent.depth + 1
        else:
            parent_id, depth = None, 0
        return Span(
            name,
            span_id,
            parent_id,
            depth,
            threading.current_thread().name,
            attrs,
            self,
        )

    def _finish(self, finished: Span) -> None:
        with self._lock:
            self.spans.append(finished)

    @contextmanager
    def activate(self) -> Iterator["Tracer"]:
        """Make this tracer the target of :func:`span` in this context."""
        t_active = _ACTIVE.set(self)
        t_current = _CURRENT.set(None)
        try:
            yield self
        finally:
            _ACTIVE.reset(t_active)
            _CURRENT.reset(t_current)

    def finished(self) -> List[Span]:
        """Finished spans in start-time order (stable snapshot)."""
        with self._lock:
            spans = list(self.spans)
        return sorted(spans, key=lambda s: (s.t_start or 0.0, s.span_id))

    def roots(self) -> List[Span]:
        """Finished spans with no parent."""
        return [s for s in self.finished() if s.parent_id is None]

    def clear(self) -> None:
        with self._lock:
            self.spans.clear()

    def adopt(self, records: Iterable[Mapping[str, Any]]) -> int:
        """Graft finished span dicts from another tracer into this one.

        Used when a per-query tracer (the flight recorder's unit of
        retention) must also feed an outer tracer — e.g. the CLI's
        ``--trace`` capturing everything a service call did. Ids are
        remapped onto this tracer's sequence so they cannot collide
        with spans recorded directly; parent links are preserved within
        the adopted batch. Returns the number of spans adopted.
        """
        records = list(records)
        if not records:
            return 0
        with self._lock:
            id_map: Dict[Any, int] = {}
            for rec in records:
                self._next_id += 1
                id_map[rec["id"]] = self._next_id
            for rec in records:
                adopted = Span(
                    rec["name"],
                    id_map[rec["id"]],
                    id_map.get(rec.get("parent")),
                    rec.get("depth", 0),
                    rec.get("thread", "adopted"),
                    dict(rec.get("attrs") or {}),
                    self,
                )
                adopted.t_start = rec.get("start")
                adopted.t_end = rec.get("end")
                self.spans.append(adopted)
        return len(records)


def current_tracer() -> Optional[Tracer]:
    """The tracer activated in this context, or None."""
    return _ACTIVE.get()


def current_span() -> "Span | NoopSpan":
    """The innermost span open in this context, or :data:`NOOP_SPAN`.

    Lets a callee annotate the span its caller opened without having
    the span passed down.
    """
    current = _CURRENT.get()
    return NOOP_SPAN if current is None else current


def span(name: str, **attrs: Any) -> "Span | NoopSpan":
    """Open a span on the active tracer, or :data:`NOOP_SPAN` if none.

    The standard instrumentation entry point::

        with span("kernel_launch", k=3, candidates=412) as sp:
            ...
            sp.set(modeled_kernel_seconds=cost)
    """
    tracer = _ACTIVE.get()
    if tracer is None:
        return NOOP_SPAN
    return tracer.span(name, **attrs)


@contextmanager
def mining_run(algorithm: str, metrics=None, **attrs: Any):
    """Root span + wall-clock timer shared by every mining algorithm.

    Replaces the hand-rolled ``t0 = time.perf_counter()`` blocks: the
    elapsed time is written to ``metrics.wall_seconds`` on exit whether
    or not tracing is active, and when a tracer *is* active the whole
    run sits under one comparable ``mining_run`` root span.
    """
    with span("mining_run", algorithm=algorithm, **attrs) as sp:
        # timed inside the span, so the wall clock and the root span
        # measure one interval
        t0 = time.perf_counter()
        try:
            yield sp
        finally:
            if metrics is not None:
                metrics.wall_seconds = time.perf_counter() - t0
