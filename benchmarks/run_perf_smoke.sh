#!/usr/bin/env bash
# Smoke-run the perf benchmarks (P1 hot paths, P2 serving, P5 input
# pipeline, P8 telemetry overhead, P10 retrieval sweep) at tiny scale.
#
# Verifies the benchmark machinery end to end — all code paths execute and
# BENCH_P1.json / BENCH_P2.json / BENCH_P5.json / BENCH_P8.json /
# BENCH_P10.json are produced — without asserting the speedup floors, which
# are only meaningful at the default scale (tiny corpora are dominated by
# fixed overheads).  P10's gate stays ON even here: its catalogs are tiled
# to fixed sizes, so the IVF-vs-exact ratio does not depend on the corpus
# scale.  Intended for CI; finishes in about a minute.
set -euo pipefail

cd "$(dirname "$0")/.."

export REPRO_PERF_SCALE="${REPRO_PERF_SCALE:-0.15}"
export REPRO_PERF_STEPS="${REPRO_PERF_STEPS:-2}"
export REPRO_PERF_MIN_SPEEDUP="${REPRO_PERF_MIN_SPEEDUP:-0}"
export REPRO_PERF_SERVE_REQUESTS="${REPRO_PERF_SERVE_REQUESTS:-48}"
export REPRO_PERF_SERVE_CLIENTS="${REPRO_PERF_SERVE_CLIENTS:-8}"
export REPRO_PERF_SERVE_MIN_SPEEDUP="${REPRO_PERF_SERVE_MIN_SPEEDUP:-0}"
export REPRO_PERF_PIPELINE_EPOCHS="${REPRO_PERF_PIPELINE_EPOCHS:-1}"
export REPRO_PERF_PIPELINE_MIN_SPEEDUP="${REPRO_PERF_PIPELINE_MIN_SPEEDUP:-0}"
export REPRO_PERF_OBS_MAX_REGRESSION="${REPRO_PERF_OBS_MAX_REGRESSION:-0}"

# Static-analysis gate: new findings (anything not in lint-baseline.json)
# fail the smoke run before any benchmark time is spent.  The --select pass
# pins the three concurrency flow rules explicitly so a registry regression
# that dropped one would fail loudly here rather than silently passing the
# full gate.
PYTHONPATH=src python -m repro lint src/repro
PYTHONPATH=src python -m repro lint src/repro \
    --select LOCK-DISCIPLINE,LOCK-ORDER,ASYNC-BLOCKING

rm -f benchmarks/results/BENCH_P1.json benchmarks/results/BENCH_P2.json \
      benchmarks/results/BENCH_P5.json benchmarks/results/BENCH_P8.json \
      benchmarks/results/BENCH_P10.json

PYTHONPATH=src python benchmarks/bench_p1_hotpaths.py
PYTHONPATH=src python benchmarks/bench_p2_serving.py
PYTHONPATH=src python benchmarks/bench_p5_pipeline.py
PYTHONPATH=src python benchmarks/bench_p8_fleet_obs.py
PYTHONPATH=src python benchmarks/bench_p10_retrieval.py

for result in BENCH_P1.json BENCH_P2.json BENCH_P5.json BENCH_P8.json BENCH_P10.json; do
    if [[ ! -f "benchmarks/results/$result" ]]; then
        echo "FAIL: benchmarks/results/$result was not produced" >&2
        exit 1
    fi
done

# Observability smoke: a telemetry-instrumented training run must produce a
# JSON-lines event log that `python -m repro obs` renders.
OBS_EVENTS="$(mktemp -t repro_obs_smoke.XXXXXX.jsonl)"
OBS_RENDER="$(mktemp -t repro_obs_smoke.XXXXXX.txt)"
trap 'rm -f "$OBS_EVENTS" "$OBS_RENDER"' EXIT
PYTHONPATH=src python -m repro train --preset taobao \
    --scale "$REPRO_PERF_SCALE" --dim 16 --epochs 1 \
    --events-out "$OBS_EVENTS" >/dev/null
PYTHONPATH=src python -m repro obs "$OBS_EVENTS" >"$OBS_RENDER"
grep -q "train.fit" "$OBS_RENDER" || {
    echo "FAIL: obs render missing train.fit span" >&2
    exit 1
}

# Network serving smoke, end to end through the CLI: export an artifact,
# start `repro serve --listen` with telemetry, push 200 closed-loop
# requests through a real socket, then SIGTERM and require a clean (exit 0)
# drain with request-correlated spans in the event log.
# REPRO_LOCK_WATCH=1 runs the server under the runtime lock-order
# watchdog — any cycle-closing lock acquisition in the serve tier raises
# LockOrderViolation and fails the smoke instead of deadlocking it.
export REPRO_LOCK_WATCH=1
SERVE_ARTIFACT="$(mktemp -t repro_serve_smoke.XXXXXX.npz)"
NET_EVENTS="$(mktemp -t repro_net_smoke.XXXXXX.jsonl)"
NET_RENDER="$(mktemp -t repro_net_smoke.XXXXXX.txt)"
trap 'rm -f "$OBS_EVENTS" "$OBS_RENDER" "$SERVE_ARTIFACT" \
            "$NET_EVENTS" "$NET_RENDER"' EXIT
PYTHONPATH=src python -m repro export --preset taobao \
    --scale "$REPRO_PERF_SCALE" --dim 16 --epochs 1 --seed 1 \
    "$SERVE_ARTIFACT" >/dev/null
PYTHONPATH=src python - "$SERVE_ARTIFACT" "$REPRO_PERF_SCALE" \
    "$NET_EVENTS" <<'PY'
import json
import signal
import subprocess
import sys

artifact, scale, events = sys.argv[1], float(sys.argv[2]), sys.argv[3]
proc = subprocess.Popen(
    [sys.executable, "-m", "repro", "serve", artifact,
     "--listen", "127.0.0.1:0", "--index", "ivf",
     "--events-out", events],
    stdout=subprocess.PIPE, text=True)
try:
    banner = json.loads(proc.stdout.readline())
    assert banner.get("ready"), f"no ready banner: {banner}"
    from repro.data import DATASET_PRESETS, generate, k_core_filter
    from repro.serve import run_load
    dataset = k_core_filter(generate(DATASET_PRESETS["taobao"](scale), seed=1))
    report = run_load(banner["host"], banner["port"], dataset.users,
                      connections=4, target_qps=0.0, total_requests=200,
                      warmup=20, k=10, seed=1)
    assert report.sent == 200, report.to_dict()
    assert report.ok == 200, report.to_dict()
finally:
    proc.send_signal(signal.SIGTERM)
    code = proc.wait(timeout=60)
assert code == 0, f"serve exited {code} on SIGTERM"

# Obs over the network: every recommend's net.request span must have a
# serve.request child carrying its request_id.
from repro.obs import read_events
spans = [e for e in read_events(events) if e["type"] == "span"]
served = {}
for span in spans:
    if span["name"] == "serve.request":
        served.setdefault(span["parent_id"], []).append(span)
requests = [s for s in spans if s["name"] == "net.request"
            and s["attrs"].get("op") == "recommend"]
assert len(requests) == report.sent, (len(requests), report.sent)
for request in requests:
    children = served.get(request["span_id"], [])
    assert [c["request_id"] for c in children] == [request["request_id"]], \
        (request, children)
print(f"serve smoke OK ({report.ok} requests, "
      f"p99 {report.percentile(99.0):.1f}ms, "
      f"{len(requests)} request-correlated serve spans)")
PY
PYTHONPATH=src python -m repro obs "$NET_EVENTS" >"$NET_RENDER"
grep -q "net.request" "$NET_RENDER" || {
    echo "FAIL: obs render missing net.request span" >&2
    exit 1
}
grep -q "serve.request" "$NET_RENDER" || {
    echo "FAIL: obs render missing serve.request span" >&2
    exit 1
}

echo "perf smoke OK"
