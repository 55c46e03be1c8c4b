"""``repro.obs`` — the unified telemetry backbone.

One shared event model covers every stage of the pipeline (data prep,
training, evaluation, serving):

- :mod:`repro.obs.events` — the telemetry hub, JSON-lines event sinks and
  the ``telemetry_session`` entry point.
- :mod:`repro.obs.trace` — nested wall-clock :func:`span` tracing with
  thread-local context and attribute tagging.
- :mod:`repro.obs.metrics` — process-wide counters / gauges / log-bucketed
  histograms in a named :class:`MetricsRegistry` (the substrate under
  :class:`repro.serve.metrics.ServingMetrics`).
- :mod:`repro.obs.health` — training-health monitors (per-component loss
  tracking, gradient-norm and update-ratio monitors, NaN/Inf watchdog)
  attached to the trainer via :class:`TrainerCallback`.
- :mod:`repro.obs.lockwatch` — runtime lock-order watchdog: named
  :class:`WatchedLock` wrappers feed a dynamic acquisition graph and a
  cycle-closing acquire raises :class:`LockOrderViolation` instead of
  deadlocking.
- :mod:`repro.obs.logs` — stdlib ``logging`` routed into the event layer.
- :mod:`repro.obs.exporters` — Prometheus text exposition, per-run
  manifests written next to checkpoints, and the host record every perf
  JSON carries.
- :mod:`repro.obs.cli` — the ``python -m repro obs`` trace/metrics renderer.

All instrumentation is zero-cost when disabled: call sites pay one
``is None`` check, matching the :mod:`repro.perf` discipline.
"""

from .cli import render_events, render_span_tree
from .events import (EventSink, Telemetry, disable_telemetry, enable_telemetry,
                     get_telemetry, read_events, read_events_tolerant,
                     telemetry_session)
from .exporters import git_revision, host_info, prometheus_text, write_run_manifest
from .fleet import (FleetView, collect_fleet, merge_registry_snapshot,
                    merge_snapshots)
from .health import (GradientMonitor, LossComponentTracker, NaNWatchdog,
                     NonFiniteGradientError, TrainerCallback)
from .lockwatch import (LockOrderViolation, LockWatchdog, WatchedLock,
                        disable_lock_watch, enable_lock_watch,
                        get_lock_watch, watched_lock, watched_rlock)
from .logs import get_logger, setup_logging
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, get_registry
from .names import (METRIC_NAMES, SPAN_NAMES, serve_latency_stage,
                    train_loss_component)
from .trace import Span, current_span, span

__all__ = [
    "EventSink",
    "Telemetry",
    "enable_telemetry",
    "disable_telemetry",
    "get_telemetry",
    "telemetry_session",
    "read_events",
    "read_events_tolerant",
    "FleetView",
    "collect_fleet",
    "merge_registry_snapshot",
    "merge_snapshots",
    "SPAN_NAMES",
    "METRIC_NAMES",
    "serve_latency_stage",
    "train_loss_component",
    "Span",
    "span",
    "current_span",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "TrainerCallback",
    "LossComponentTracker",
    "GradientMonitor",
    "NaNWatchdog",
    "NonFiniteGradientError",
    "LockOrderViolation",
    "LockWatchdog",
    "WatchedLock",
    "watched_lock",
    "watched_rlock",
    "enable_lock_watch",
    "disable_lock_watch",
    "get_lock_watch",
    "get_logger",
    "setup_logging",
    "prometheus_text",
    "write_run_manifest",
    "host_info",
    "git_revision",
    "render_events",
    "render_span_tree",
]
