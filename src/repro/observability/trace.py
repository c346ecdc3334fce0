"""Span-based tracing with a pluggable sink.

A *span* is one timed stage of a run (a refinement round, one cost
evaluation, one Monte-Carlo measurement).  Spans nest: the innermost
open span lives in a context variable, so each thread and each asyncio
task sees its own, and a span records its parent and depth without any
coordination between them.  Timing uses the monotonic clock.

The tracer is deliberately minimal.  When no sink is installed —
the default — ``span()`` returns a shared no-op object and ``event()``
returns immediately, so instrumentation in hot paths is free.  Install
a sink (any callable-bearing object with ``emit(record)``) to start
recording; :class:`repro.observability.export.JsonlSink` persists
records to a JSONL file.
"""

from __future__ import annotations

import threading
import time
from contextvars import ContextVar, Token
from typing import Any, Dict, Optional, Protocol


class Sink(Protocol):
    """Destination for trace records (plain dicts)."""

    def emit(self, record: Dict[str, Any]) -> None:
        """Persist one record; must be safe to call from any thread."""
        ...


class Span:
    """One timed, attributed stage of a run.

    Use as a context manager (normally via :meth:`Tracer.span`)::

        with tracer.span("search.region", level=2) as sp:
            ...
            sp.set(survivors=3)

    Exceptions propagate; the span still closes, flagged
    ``status="error"`` with the exception type attached.
    """

    __slots__ = (
        "name", "attrs", "start_s", "end_s", "status",
        "_tracer", "_parent", "_depth", "_token",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self.start_s = 0.0
        self.end_s = 0.0
        self.status = "ok"
        self._tracer = tracer
        self._parent: Optional[str] = None
        self._depth = 0
        self._token: Optional[Token] = None

    @property
    def duration_s(self) -> float:
        """Wall-clock span length (0 while still open)."""
        return max(0.0, self.end_s - self.start_s)

    def set(self, **attrs: Any) -> None:
        """Attach or overwrite attributes on the open span."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        current = self._tracer._current
        parent = current.get()
        if parent is not None:
            self._parent = parent.name
            self._depth = parent._depth + 1
        self._token = current.set(self)
        self.start_s = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end_s = time.monotonic()
        if exc_type is not None:
            self.status = "error"
            self.attrs.setdefault("exception", exc_type.__name__)
        self._tracer._current.reset(self._token)
        self._tracer._emit_span(self)
        return False  # never swallow the exception


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    name = ""
    attrs: Dict[str, Any] = {}
    duration_s = 0.0
    status = "ok"

    def set(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


class Tracer:
    """Factory for spans and events, writing to one optional sink."""

    def __init__(self, sink: Optional[Sink] = None) -> None:
        self._sink = sink
        self._current: ContextVar[Optional[Span]] = ContextVar(
            f"repro_span_{id(self)}", default=None
        )

    # -- sink management ------------------------------------------------

    @property
    def enabled(self) -> bool:
        """True while a sink is installed."""
        return self._sink is not None

    @property
    def sink(self) -> Optional[Sink]:
        return self._sink

    def set_sink(self, sink: Optional[Sink]) -> Optional[Sink]:
        """Install (or with ``None`` remove) the sink; returns the old one."""
        old, self._sink = self._sink, sink
        return old

    # -- recording ------------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """Open a span context; a shared no-op when tracing is off."""
        if self._sink is None:
            return _NOOP_SPAN
        return Span(self, name, attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Record a point-in-time occurrence (no duration)."""
        sink = self._sink
        if sink is None:
            return
        record: Dict[str, Any] = {
            "type": "event",
            "name": name,
            "t_s": time.monotonic(),
        }
        if attrs:
            record["attrs"] = attrs
        current = self._current.get()
        if current is not None:
            record["span"] = current.name
        sink.emit(record)

    def current_span(self) -> Optional[Span]:
        """The innermost open span of this thread or task, if any."""
        return self._current.get()

    # -- internals ------------------------------------------------------

    def _emit_span(self, span: Span) -> None:
        sink = self._sink
        if sink is None:  # sink removed while the span was open
            return
        record: Dict[str, Any] = {
            "type": "span",
            "name": span.name,
            "t0_s": span.start_s,
            "dur_s": span.duration_s,
            "depth": span._depth,
            "status": span.status,
            "thread": threading.get_ident(),
        }
        if span._parent is not None:
            record["parent"] = span._parent
        if span.attrs:
            record["attrs"] = span.attrs
        sink.emit(record)


#: Process-wide default tracer all library instrumentation uses.
_DEFAULT_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide default tracer."""
    return _DEFAULT_TRACER


def set_sink(sink: Optional[Sink]) -> Optional[Sink]:
    """Install a sink on the default tracer; returns the previous one."""
    return _DEFAULT_TRACER.set_sink(sink)


def span(name: str, **attrs: Any):
    """Open a span on the default tracer (no-op while disabled)."""
    return _DEFAULT_TRACER.span(name, **attrs)


def trace_event(name: str, **attrs: Any) -> None:
    """Record an event on the default tracer (no-op while disabled)."""
    _DEFAULT_TRACER.event(name, **attrs)
