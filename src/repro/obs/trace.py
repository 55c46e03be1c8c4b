"""Nested wall-clock tracing spans with thread-local context.

A *span* measures one named stage of the pipeline — an epoch, a validation
pass, a hypergraph build, one serving micro-batch — and records its parent
span so ``python -m repro obs`` can render the run as a tree.  Spans nest
per thread: the serving worker thread and the caller thread each maintain
their own stack, so parentage never crosses threads.

Usage::

    from repro.obs import span

    with span("train.epoch", epoch=3) as s:
        ...
        s.set(loss=0.42)          # attach attributes mid-flight

When telemetry is disabled (:func:`repro.obs.get_telemetry` returns None)
:func:`span` hands back a shared no-op object, so instrumented code pays one
global check and no allocation — the same zero-cost discipline as
:mod:`repro.perf`.  Each finished span emits a single ``span`` event carrying
its name, id, parent id, trace id, start time, duration and attributes.
"""

from __future__ import annotations

import threading
import time

from .events import get_telemetry

__all__ = ["Span", "span", "current_span"]

_LOCAL = threading.local()


def _stack() -> list:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


class Span:
    """One live tracing span; use as a context manager.

    The span emits its event on exit — ``{"type": "span", "name", "span_id",
    "parent_id", "trace_id", "start", "seconds", "attrs", "thread", "ts"}``
    — where ``start`` is a ``perf_counter`` timestamp (orders spans within
    the process) and ``ts`` the wall-clock time at exit.  A ``request_id``
    field is added when the span is on a correlated request path.
    """

    __slots__ = ("name", "attrs", "span_id", "parent_id", "trace_id",
                 "request_id", "seconds", "_telemetry", "_start")

    def __init__(self, telemetry, name: str, attrs: dict):
        self.name = name
        self.attrs = attrs
        self._telemetry = telemetry
        self.span_id = telemetry.next_span_id()
        self.parent_id: int | None = None
        self.trace_id: int = self.span_id
        self.request_id: str | None = None
        self.seconds: float | None = None
        self._start: float | None = None

    def set(self, **attrs) -> "Span":
        """Attach or overwrite attributes; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        stack = _stack()
        if stack:
            parent = stack[-1]
            self.parent_id = parent.span_id
            self.trace_id = parent.trace_id
            self.request_id = parent.request_id
        stack.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, _tb) -> None:
        self.seconds = time.perf_counter() - self._start
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        if exc_type is not None:
            self.attrs["error"] = f"{exc_type.__name__}: {exc}"
        fields = dict(name=self.name, span_id=self.span_id,
                      parent_id=self.parent_id, trace_id=self.trace_id,
                      start=self._start, seconds=self.seconds,
                      attrs=self.attrs,
                      thread=threading.current_thread().name)
        if self.request_id is not None:
            fields["request_id"] = self.request_id
        self._telemetry.emit("span", **fields)


class _NoopSpan:
    """Shared do-nothing span returned while telemetry is disabled."""

    __slots__ = ()

    def set(self, **_attrs) -> "_NoopSpan":
        """No-op attribute setter (keeps call sites unconditional)."""
        return self

    def __setattr__(self, _name: str, _value) -> None:
        """Silently drop assignments (e.g. ``span.request_id = ...``) so a
        telemetry disable racing a call site never turns into an error."""

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *_exc) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


def span(name: str, **attrs):
    """Open a named span under the current thread's innermost span.

    Returns a live :class:`Span` when telemetry is enabled, else a shared
    no-op object — always usable as a context manager.
    """
    telemetry = get_telemetry()
    if telemetry is None:
        return _NOOP_SPAN
    return Span(telemetry, name, attrs)


def current_span() -> Span | None:
    """The innermost open span on this thread, or None."""
    stack = getattr(_LOCAL, "stack", None)
    return stack[-1] if stack else None
