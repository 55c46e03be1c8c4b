"""Collect one run's event log into a view, merging metric snapshots.

* **events** — every event of the file, malformed lines skipped and
  counted (an event file can end mid-line).
* **metrics** — the file's last ``metrics`` snapshot folded into one
  :class:`~repro.obs.metrics.MetricsRegistry`.  :func:`merge_snapshots`
  combines several snapshots: counters sum, histograms merge bucket-wise
  exactly via their serialized :meth:`~repro.obs.metrics.Histogram.state`,
  and gauges keep the last writer — gauges are instantaneous values, so
  summing them would be meaningless.
* **synthetic ``fleet.*`` counters** describe the collection itself
  (event/span counts, malformed lines), so the registry is self-describing
  in ``prometheus_text`` output.

Only the *last* ``metrics`` event is merged: registry snapshots are
cumulative, so folding every intermediate snapshot would double-count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .events import read_events_tolerant
from .metrics import MetricsRegistry

__all__ = ["FleetView", "collect_fleet", "merge_registry_snapshot",
           "merge_snapshots"]


def merge_registry_snapshot(registry: MetricsRegistry, snapshot: dict) -> None:
    """Fold one serialized registry snapshot into a live registry.

    Counters add, gauges overwrite (last writer wins), histograms merge
    exactly through their embedded ``state`` (snapshots without state are
    skipped rather than merged lossily).
    """
    for name, value in snapshot.get("counters", {}).items():
        registry.counter(name).inc(value)
    for name, value in snapshot.get("gauges", {}).items():
        registry.gauge(name).set(value)
    for name, summary in snapshot.get("histograms", {}).items():
        state = summary.get("state")
        if state is None:
            continue
        histogram = registry.histogram(
            name, bounds=np.asarray(state["bounds"], dtype=float))
        histogram.merge_state(state)


def merge_snapshots(snapshots) -> MetricsRegistry:
    """Merge an iterable of registry snapshots into one fresh registry."""
    registry = MetricsRegistry()
    for snapshot in snapshots:
        merge_registry_snapshot(registry, snapshot)
    return registry


@dataclass
class FleetView:
    """Everything one collection pass recovered from a run's event file."""

    events: list = field(default_factory=list)
    """All events, in file order."""

    spans: list = field(default_factory=list)
    """The ``span`` events."""

    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    """The run's final metrics plus the ``fleet.*`` collection counters."""

    malformed_lines: int = 0
    """Lines skipped as invalid JSON (torn lines, truncated tails)."""


def collect_fleet(path: str | Path) -> FleetView:
    """Collect one run from the file handed to ``--events-out``.

    Malformed lines are skipped and counted, never fatal — a live run's
    file may end mid-write.
    """
    events, malformed = read_events_tolerant(path)
    view = FleetView(events=events, malformed_lines=malformed)
    snapshots = [event for event in events if event.get("type") == "metrics"]
    if snapshots:
        merge_registry_snapshot(view.registry,
                                snapshots[-1].get("registry", {}))
    view.spans = [event for event in events if event.get("type") == "span"]
    registry = view.registry
    registry.counter("fleet.events").inc(len(view.events))
    registry.counter("fleet.spans").inc(len(view.spans))
    registry.counter("fleet.malformed_lines").inc(view.malformed_lines)
    return view
