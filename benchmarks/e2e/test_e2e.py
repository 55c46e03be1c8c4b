"""Tests of the end-to-end benchmark itself (``pytest benchmarks/e2e``).

* Every metric ``BENCHMARK.json`` names is emitted, finite and with its
  unit, for every workload, in a smoke-sized run of ``run.py``.
* The open-loop generator times from the due time: a one-off 200 ms stall
  of the server shows in the latencies of the requests due behind it.
* A fixed-rate phase sends every request however late it runs; a ladder
  rung counts what it could not send in time.
* The capacity ladder brackets the rate a stub server can sustain.
* Outside a full checkout the command fails fast without a result.
"""

from __future__ import annotations

import json
import math
import shutil
import socketserver
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from loadgen import Op, OpenLoopGenerator, capacity_ladder  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _run(tmp_path_factory, trace: int) -> dict:
    out = tmp_path_factory.mktemp("e2e") / "result.json"
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "3",
         "--seed", "5", "--trace", str(trace), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    summary = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    return json.loads(out.read_text())["workloads"]


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return _run(tmp_path_factory, trace=0)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return _run(tmp_path_factory, trace=1)


def _check_metrics(result: dict, spec: list[dict]) -> None:
    assert result["correct"], result.get("checks")
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {metric["name"] for metric in spec}
    for metric in spec:
        emitted = metrics[metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert math.isfinite(emitted["value"]), metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(untraced, workload):
    _check_metrics(untraced[workload], SPEC["end_to_end"])
    for metric in SPEC["end_to_end"]:
        assert untraced[workload]["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_emitted(traced, workload):
    _check_metrics(traced[workload], SPEC["per_layer"])


def test_traced_run_confirms_workload_premises(traced):
    def layer(workload, name):
        return traced[workload]["metrics"][name]["value"]

    assert layer("serve_read", "serve.cache.hit_share") >= 0.6
    assert layer("serve_write", "serve.cache.hit_share") <= 0.05
    assert layer("serve_read", "serve.batcher.queue_ms.p50") >= \
        0.5 * layer("serve_read", "serve.net.server_ms.p50")
    assert layer("batch_score", "serve.batcher.queue_ms.p99") == 0
    assert layer("batch_score", "serve.net.server_ms.p99") == 0
    assert layer("batch_score", "serve.encoder.encode_ms.p50") > 0
    for name in traced["train"]["metrics"]:
        if name.startswith("serve."):
            assert layer("train", name) == 0, name
    for workload in ("train", "serve_read", "serve_write"):
        assert layer(workload, "ledger.residual_share") <= 0.10, workload


class _StubHandler(socketserver.StreamRequestHandler):
    """NDJSON recommend answers after ``service_s``; the server's 20th
    request stalls 200 ms when ``stall_once`` is set."""

    def handle(self):
        for line in self.rfile:
            request = json.loads(line)
            with self.server.lock:
                self.server.count += 1
                stall = self.server.stall_once and self.server.count == 20
            if stall:
                time.sleep(0.2)
                self.server.stalled_user = request["user"]
            elif self.server.service_s:
                time.sleep(self.server.service_s)
            reply = {"ok": True, "user": request["user"],
                     "items": list(range(1, 11)), "scores": [0.0] * 10}
            self.wfile.write(json.dumps(reply).encode() + b"\n")
            self.wfile.flush()


class _StubServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, stall_once: bool = False, service_s: float = 0.0):
        super().__init__(("127.0.0.1", 0), _StubHandler)
        self.lock = threading.Lock()
        self.count = 0
        self.stall_once = stall_once
        self.service_s = service_s
        self.stalled_user = None


@pytest.fixture
def stub_server(request):
    server = _StubServer(**request.param)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(5)
    assert not thread.is_alive()


@pytest.mark.parametrize("stub_server", [{"stall_once": True}], indirect=True)
def test_stall_shows_in_due_time_latencies(stub_server):
    server = stub_server
    host, port = server.server_address
    with OpenLoopGenerator(host, port, connections=2) as generator:
        ops = [Op(user) for user in range(100)]
        rung = generator.run(ops, seconds=1.0, rate=100.0)
    assert rung.failed == 0 and rung.unsent == 0 and len(rung.samples) == 100

    stalled = next(s for s in rung.samples
                   if s.op.user == server.stalled_user)
    behind = [s for s in rung.samples
              if s.op.user % 2 == stalled.op.user % 2
              and stalled.due < s.due < stalled.due + 0.2]
    assert (stalled.done - stalled.due) >= 0.2
    # Requests due during the stall on that connection were sent late, and
    # their due-time latencies carry the wait ...
    assert len(behind) >= 5
    assert all(s.done - s.due > 0.05 for s in behind[:5])
    assert all(s.sent - s.due > 0.05 for s in behind[:5])
    # ... which timing from the send would have hidden.
    assert all(s.done - s.sent < 0.05 for s in behind)
    other = [s for s in rung.samples if s.op.user % 2 != stalled.op.user % 2]
    assert max(s.done - s.due for s in other) < 0.1


@pytest.mark.parametrize("stub_server", [{"service_s": 0.02}], indirect=True)
def test_rung_without_cut_off_sends_every_request(stub_server):
    # One connection of 20 ms requests carries 50/s; at 100/s it falls
    # behind and is still sending when the rung ends.
    host, port = stub_server.server_address
    with OpenLoopGenerator(host, port, connections=1) as generator:
        ops = [Op(user) for user in range(50)]
        cut = generator.run(ops, seconds=0.5, rate=100.0)
        late = generator.run(ops, seconds=0.5, rate=100.0, cut_off=False)
    assert cut.unsent > 0 and not cut.passed()
    assert late.unsent == 0 and late.failed == 0 and len(late.samples) == 50
    assert max(late.latencies_ms()) > 300.0


@pytest.mark.parametrize("stub_server", [{"service_s": 0.008}], indirect=True)
def test_capacity_ladder_brackets_the_sustainable_rate(stub_server):
    # Two connections of one 8 ms request at a time carry 250 requests/s.
    host, port = stub_server.server_address
    users = iter(range(10**6))
    with OpenLoopGenerator(host, port, connections=2) as generator:
        top, rungs = capacity_ladder(
            generator, lambda count: [Op(next(users)) for _ in range(count)],
            rung_seconds=0.5, floor=100.0)
    # Doubling stops at the first failure; four bisections follow.
    assert [rung.rate for rung in rungs[:3]] == [200.0, 400.0, 300.0]
    assert [rung.passed() for rung in rungs[:3]] == [True, False, False]
    assert len(rungs) == 6
    assert top is not None and 200.0 <= top.rate < 300.0
    assert top.served_per_second() > 0.9 * top.rate


def test_fails_fast_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "train",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
