"""Catalog of every span and metric name the library emits.

Aggregation and dashboards only work when every site names its spans and
metrics identically — a typo'd or ad-hoc name produces a stray series that
silently fragments the view.  This module is therefore the single source
of truth: instrumentation sites either use a dotted lowercase string
literal present in :data:`SPAN_NAMES` / :data:`METRIC_NAMES`, or go
through one of the template helpers below for the few legitimately
parameterized families (per-stage serving latency, per-component loss
gauges).

The ``SPAN-NAME-DISCIPLINE`` lint rule (:mod:`repro.lint.rules`) enforces
this at the AST level: a ``span(...)`` / ``registry.counter(...)`` call
whose name argument is not a catalog literal or a call to a helper exported
here is a finding.
"""

from __future__ import annotations

__all__ = [
    "SPAN_NAMES",
    "METRIC_NAMES",
    "serve_latency_stage",
    "train_loss_component",
]

SPAN_NAMES = frozenset({
    # training
    "train.fit",
    "train.epoch",
    "train.train_pass",
    "train.eval_pass",
    "train.step",
    # evaluation & preprocessing
    "eval.rank_all",
    "hypergraph.build",
    # serving (in-process)
    "serve.request",
    "serve.batch",
    "serve.encode",
    "serve.retrieve_rank",
    # serving (network front-end)
    "net.request",
})
"""Every static span name."""

METRIC_NAMES = frozenset({
    # serving service
    "serve.requests",
    "serve.errors",
    "serve.batches",
    "serve.batched_requests",
    "serve.max_batch_size",
    "serve.cache.hits",
    "serve.cache.misses",
    "serve.cache.stampede_suppressed",
    "serve.recall.sum",
    "serve.recall.samples",
    # retrieval index
    "serve.index.candidates",
    # serving network tier
    "serve.net.connections",
    "serve.net.requests",
    "serve.net.shed",
    "serve.net.errors",
    "serve.net.read_timeouts",
    "serve.net.inflight",
    # request correlation (front-end per-stage)
    "net.request.seconds",
    "net.request.dispatch_seconds",
    # training health
    "train.grad.global_norm",
    "train.grad.update_ratio.max",
    # event-log collection synthetics
    "fleet.events",
    "fleet.spans",
    "fleet.malformed_lines",
    # lock-order watchdog (repro.obs.lockwatch)
    "lockwatch.acquisitions",
    "lockwatch.edges",
    "lockwatch.cycles",
})
"""Every static metric name registered anywhere in the library."""


def serve_latency_stage(stage: str) -> str:
    """Histogram name for one serving latency stage (``serve.latency.<stage>``)."""
    return "serve.latency." + stage


def train_loss_component(component: str) -> str:
    """Gauge name for one loss component (``train.loss.<component>``)."""
    return "train.loss." + component
