"""Structured telemetry events: the shared backbone of ``repro.obs``.

Everything the observability layer produces — finished spans, log records,
per-epoch training summaries, final metric snapshots — is one *event*: a
flat JSON-serializable dict with a ``type`` field and a wall-clock ``ts``.
Events flow into an :class:`EventSink` (an in-memory ring or a JSON-lines
file), and ``python -m repro obs`` re-reads the file to render a trace tree
and metric summary.

Telemetry follows the same zero-cost-when-disabled discipline as
:mod:`repro.perf`: a single module-global :class:`Telemetry` hub is either
installed or ``None``, and every instrumentation point in the library pays
one ``is None`` check when the hub is absent.  Typical use::

    from repro.obs import telemetry_session

    with telemetry_session("run.events.jsonl"):
        trainer.fit()          # spans + epoch events land in the file

On session exit a final ``{"type": "metrics", ...}`` event captures the
associated :class:`~repro.obs.metrics.MetricsRegistry` snapshot, so one file
carries both the trace and the counters.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from pathlib import Path

__all__ = [
    "EventSink",
    "Telemetry",
    "enable_telemetry",
    "disable_telemetry",
    "get_telemetry",
    "telemetry_session",
    "read_events",
    "read_events_tolerant",
]


class EventSink:
    """Thread-safe event consumer: in-memory list plus optional JSON-lines file.

    Args:
        path: when given, every event is appended to this file as one JSON
            line (the file is truncated on open).  Without a path events are
            only kept in :attr:`events` — handy for tests.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self.keep_in_memory = self.path is None
        self.events: list[dict] = []
        self._lock = threading.Lock()
        self._file = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # Line-buffered: every emitted event reaches the file before the
            # next syscall, so a crashed process loses nothing.
            self._file = open(self.path, "w", encoding="utf-8", buffering=1)

    def emit(self, event: dict) -> None:
        """Record one event (thread-safe; silently dropped after close)."""
        with self._lock:
            if self.keep_in_memory:
                self.events.append(event)
            if self._file is not None and not self._file.closed:
                self._file.write(json.dumps(event) + "\n")

    def flush(self) -> None:
        """Flush the underlying file, if any."""
        with self._lock:
            if self._file is not None and not self._file.closed:
                self._file.flush()

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        with self._lock:
            if self._file is not None and not self._file.closed:
                self._file.flush()
                self._file.close()


class Telemetry:
    """The enabled telemetry hub: an event sink plus a metrics registry.

    Instrumentation points obtain the hub with :func:`get_telemetry` (or go
    through :func:`repro.obs.trace.span`, which does it for them) and call
    :meth:`emit`.  The hub also hands out span ids, monotone from 1.
    """

    def __init__(self, sink: EventSink, registry=None):
        from .metrics import get_registry
        self.sink = sink
        self.registry = registry if registry is not None else get_registry()
        self._span_ids = itertools.count(1)

    def next_span_id(self) -> int:
        """A fresh id for one span (monotone within the hub)."""
        return next(self._span_ids)

    def emit(self, type: str, **fields) -> None:
        """Stamp and forward one event to the sink."""
        event = {"type": type, "ts": time.time()}
        event.update(fields)
        self.sink.emit(event)

    def emit_metrics_snapshot(self) -> None:
        """Append one ``metrics`` event with the registry's current state."""
        self.emit("metrics", registry=self.registry.snapshot())


_TELEMETRY: Telemetry | None = None


def get_telemetry() -> Telemetry | None:
    """The installed telemetry hub, or None when telemetry is disabled."""
    return _TELEMETRY


def enable_telemetry(path: str | Path | None = None,
                     registry=None) -> Telemetry:
    """Install a telemetry hub writing to ``path`` (or memory when None).

    Replaces any previously installed hub (its sink is closed first).
    """
    global _TELEMETRY
    if _TELEMETRY is not None:
        _TELEMETRY.sink.close()
    _TELEMETRY = Telemetry(EventSink(path), registry=registry)
    return _TELEMETRY


def disable_telemetry(final_snapshot: bool = True) -> None:
    """Uninstall the hub; optionally append a final metrics snapshot first."""
    global _TELEMETRY
    if _TELEMETRY is None:
        return
    if final_snapshot:
        _TELEMETRY.emit_metrics_snapshot()
    _TELEMETRY.sink.close()
    _TELEMETRY = None


@contextlib.contextmanager
def telemetry_session(path: str | Path | None = None, registry=None):
    """Context manager: telemetry enabled for the block, snapshot on exit.

    Yields the :class:`Telemetry` hub.  On exit the registry snapshot is
    appended as the final event and the hub is uninstalled, so the produced
    JSON-lines file is self-contained.
    """
    telemetry = enable_telemetry(path, registry=registry)
    try:
        yield telemetry
    finally:
        disable_telemetry()


def read_events(path: str | Path) -> list[dict]:
    """Parse one JSON-lines event file back into a list of event dicts.

    Blank lines are skipped; malformed lines raise ``ValueError`` with the
    offending line number.
    """
    events = []
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as error:
                raise ValueError(f"{path}:{number}: not valid JSON ({error})")
    return events


def read_events_tolerant(path: str | Path) -> tuple[list[dict], int]:
    """Like :func:`read_events`, but skip malformed lines instead of raising.

    Returns ``(events, malformed_lines)``.  An event file can legitimately
    end mid-line (a process killed between ``write`` and newline) — the
    renderer uses this form and surfaces the count, while
    :func:`read_events` stays strict for tests and tooling that treat a
    corrupt file as an error.
    """
    events: list[dict] = []
    malformed = 0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                malformed += 1
                continue
            if isinstance(event, dict):
                events.append(event)
            else:
                malformed += 1
    return events, malformed
