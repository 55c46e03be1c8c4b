"""P8 — serving observability: correlation correctness and enabled-cost bound.

Runs one closed-loop load (real TCP socket, in-process backend) twice over
the same artifact: telemetry **disabled** (the baseline every request pays
anyway) and telemetry **enabled** with a JSON-lines event file.  The
benchmark then answers two questions with numbers:

1. **Correlation correctness** — after the enabled run, every front-end
   ``net.request`` span must have a ``serve.request`` child carrying its
   ``request_id``.
2. **Enabled cost** — served p99 with telemetry on must stay within
   ``REPRO_PERF_OBS_MAX_REGRESSION`` (default 5%) of the disabled baseline.
   On hosts with a single CPU the front-end, the load generator *and* the
   event writer all contend for one core, so the latency assertion is
   waived there (the correctness assertions are not).

Writes ``benchmarks/results/BENCH_P8.json``.

Runnable both ways:
    pytest -m perf benchmarks/bench_p8_fleet_obs.py
    python benchmarks/bench_p8_fleet_obs.py

Environment knobs:
    REPRO_PERF_SCALE                dataset scale factor (default 0.4)
    REPRO_PERF_NET_REQUESTS         load-gen requests per run (default 240)
    REPRO_PERF_NET_CONNECTIONS      persistent client connections (default 4)
    REPRO_PERF_OBS_MAX_REGRESSION   p99 regression bound for the enabled run
                                    (default 0.05; 0 disables the assertion)
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import pytest

from common import RESULTS_DIR

from repro.experiments import ExperimentContext, build_model
from repro.obs import host_info, read_events, telemetry_session
from repro.serve import (HistoryStore, LocalBackend, NetServer,
                         RecommenderService, export_artifact, load_artifact,
                         run_load)

PERF_SCALE = float(os.environ.get("REPRO_PERF_SCALE", "0.4"))
NET_REQUESTS = int(os.environ.get("REPRO_PERF_NET_REQUESTS", "240"))
NET_CONNECTIONS = int(os.environ.get("REPRO_PERF_NET_CONNECTIONS", "4"))
MAX_REGRESSION = float(os.environ.get("REPRO_PERF_OBS_MAX_REGRESSION", "0.05"))
PERF_DIM = 32
TOP_K = 10
WARMUP = 24

pytestmark = pytest.mark.perf


def _exported_artifact():
    """A frozen artifact plus its corpus (untrained weights — the request
    path does not depend on training)."""
    context = ExperimentContext.build("taobao", scale=PERF_SCALE, seed=1)
    model = build_model("MISSL", context, dim=PERF_DIM, seed=1)
    with tempfile.TemporaryDirectory(prefix="repro-bench-p8-") as root:
        artifact = load_artifact(
            export_artifact(model, Path(root) / "artifact.npz"))
    return artifact, context.dataset


def _serve_load(artifact, dataset, registry=None) -> dict:
    """One closed-loop load through the in-process backend on a socket."""
    backend = LocalBackend(RecommenderService(
        artifact, HistoryStore.from_dataset(dataset), registry=registry))
    server = NetServer(backend, max_inflight=64, default_k=TOP_K,
                       registry=registry)
    try:
        host, port = server.start_background()
        report = run_load(host, port,
                          HistoryStore.from_dataset(dataset).users,
                          connections=NET_CONNECTIONS, target_qps=0.0,
                          total_requests=NET_REQUESTS, warmup=WARMUP,
                          k=TOP_K, seed=1)
        return report.to_dict()
    finally:
        server.stop()
        backend.close()


def _correlation_facts(events_path: Path) -> dict:
    """Count front-end requests and the service spans joined to them."""
    spans = [e for e in read_events(events_path) if e["type"] == "span"]
    front = {s["span_id"]: s for s in spans if s["name"] == "net.request"}
    joined = sum(
        1 for child in spans
        if child["name"] == "serve.request"
        and (parent := front.get(child["parent_id"])) is not None
        and parent.get("request_id") == child.get("request_id")
        and parent["trace_id"] == child["trace_id"])
    return {"net_request_spans": len(front), "joined_serve_spans": joined}


def run_bench() -> dict:
    """Measure disabled vs telemetry-enabled serving; write BENCH_P8.json."""
    artifact, dataset = _exported_artifact()

    disabled = _serve_load(artifact, dataset)

    with tempfile.TemporaryDirectory(prefix="repro-bench-p8-obs-") as root:
        events_path = Path(root) / "serve.jsonl"
        with telemetry_session(events_path) as telemetry:
            enabled = _serve_load(artifact, dataset,
                                  registry=telemetry.registry)
        correlation = _correlation_facts(events_path)

    regression = (enabled["p99_ms"] / disabled["p99_ms"] - 1.0
                  if disabled["p99_ms"] > 0 else 0.0)
    payload = {
        "benchmark": "P8",
        "host": host_info(),
        "config": {"preset": "taobao", "scale": PERF_SCALE, "dim": PERF_DIM,
                   "k": TOP_K, "requests": NET_REQUESTS,
                   "connections": NET_CONNECTIONS,
                   "max_regression": MAX_REGRESSION,
                   "cpu_count": os.cpu_count()},
        "disabled": disabled,
        "enabled": enabled,
        "p99_regression": regression,
        "correlation": correlation,
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out_path = RESULTS_DIR / "BENCH_P8.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print()
    print(f"  disabled  qps={disabled['achieved_qps']:7.1f} "
          f"p50={disabled['p50_ms']:6.2f}ms p99={disabled['p99_ms']:6.2f}ms")
    print(f"  enabled   qps={enabled['achieved_qps']:7.1f} "
          f"p50={enabled['p50_ms']:6.2f}ms p99={enabled['p99_ms']:6.2f}ms "
          f"({regression:+.1%} p99)")
    print(f"  net.request={correlation['net_request_spans']} "
          f"joined serve.request={correlation['joined_serve_spans']}")
    print(f"  written to {out_path}")
    return payload


def _check(payload: dict) -> None:
    for run in ("disabled", "enabled"):
        row = payload[run]
        assert row["sent"] == NET_REQUESTS, run
        assert row["ok"] == NET_REQUESTS, (
            f"{run}: {row['errors']} errors / {row['shed']} sheds under an "
            "in-bounds closed loop")

    correlation = payload["correlation"]
    assert correlation["net_request_spans"] == NET_REQUESTS
    # every front-end request's service span carries its request id
    assert correlation["joined_serve_spans"] == NET_REQUESTS

    cpus = payload["config"]["cpu_count"] or 1
    if MAX_REGRESSION > 0 and cpus > 1:
        assert payload["p99_regression"] < MAX_REGRESSION, (
            f"telemetry regressed served p99 by "
            f"{payload['p99_regression']:.1%} "
            f"(bound {MAX_REGRESSION:.0%})")
    elif MAX_REGRESSION > 0:
        print(f"  note: p99 regression assertion waived on a {cpus}-CPU "
              "host (front-end, loadgen and event writer share one core)")


def test_p8_fleet_obs():
    payload = run_bench()
    assert (RESULTS_DIR / "BENCH_P8.json").exists()
    _check(payload)


if __name__ == "__main__":
    _check(run_bench())
