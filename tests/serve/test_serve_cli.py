"""CLI tests for the ``export`` and ``serve`` subcommands."""

import io
import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.serve import (LocalBackend, NetClient, RecommenderService,
                         load_artifact, normalize_request)


class TestParser:
    def test_export_parses(self):
        args = build_parser().parse_args(["export", "out.npz", "--scale", "0.1"])
        assert args.command == "export" and args.out == "out.npz"

    def test_serve_parses(self):
        args = build_parser().parse_args(
            ["serve", "art.npz", "--index", "ivf", "--probe-every", "5"])
        assert args.command == "serve"
        assert args.index == "ivf" and args.probe_every == 5
        assert build_parser().parse_args(["serve", "art.npz"]).index == "exact"

    @pytest.mark.parametrize("argv", [
        ["serve", "art.npz", "--index", "hnsw"],
        ["serve", "art.npz", "--index", "pq"],
        ["serve", "art.npz", "--index", "ivf_pq"],
        ["serve", "art.npz", "--index", "exact_sq"],
        ["serve", "art.npz", "--backend", "ivf"],
        ["serve", "art.npz", "--refine", "80"],
        ["export", "out", "--artifact-format", "dir"],
        ["export", "out", "--prebuild", "ivf"],
        ["export", "out", "--pq-m", "4"],
    ])
    def test_removed_backends_and_formats_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        capsys.readouterr()

    def test_serve_telemetry_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "art.npz", "--events-out", "ev.jsonl",
             "--metrics-out", "metrics.json"])
        assert args.events_out == "ev.jsonl"
        assert args.metrics_out == "metrics.json"

    def test_train_events_out_parses(self):
        args = build_parser().parse_args(
            ["train", "--events-out", "ev.jsonl"])
        assert args.events_out == "ev.jsonl"


def _serve_request(service, request: dict, default_k: int) -> dict:
    """One request through the serve loop's path: parse, then execute."""
    return LocalBackend(service).process(normalize_request(request, default_k))


class TestServeRequest:
    @pytest.fixture
    def service(self, artifact, history):
        with RecommenderService(artifact, history) as svc:
            yield svc

    def test_recommend_op(self, service, tiny_dataset):
        user = tiny_dataset.users[0]
        response = _serve_request(service, {"op": "recommend", "user": user,
                                            "k": 3}, default_k=10)
        assert response["ok"] and len(response["items"]) == 3
        assert len(response["scores"]) == 3

    def test_recommend_is_the_default_op(self, service, tiny_dataset):
        response = _serve_request(service, {"user": tiny_dataset.users[0]},
                                  default_k=4)
        assert response["ok"] and len(response["items"]) == 4

    def test_append_and_stats_ops(self, service, tiny_dataset):
        user = tiny_dataset.users[0]
        behavior = tiny_dataset.schema.behaviors[0]
        appended = _serve_request(service, {"op": "append", "user": user,
                                            "item": 1, "behavior": behavior},
                                  default_k=10)
        assert appended == {"ok": True, "user": user, "version": 1}
        stats = _serve_request(service, {"op": "stats"}, default_k=10)
        assert stats["ok"] and "qps" in stats["stats"]
        report = _serve_request(service, {"op": "report"}, default_k=10)
        assert "stage" in report["report"]

    def test_unknown_op_raises(self, service):
        with pytest.raises(ValueError, match="unknown op"):
            _serve_request(service, {"op": "fly"}, default_k=10)


class TestEndToEnd:
    def test_export_records_provenance(self, exported):
        artifact = load_artifact(exported)
        assert artifact.extra == {"preset": "taobao", "scale": 0.1, "seed": 3}

    def test_serve_loop(self, exported, monkeypatch, capsys):
        artifact = load_artifact(exported)
        requests = "\n".join([
            json.dumps({"op": "stats"}),
            "",  # blank lines are skipped
            "not json",
            json.dumps({"op": "quit"}),
        ])
        monkeypatch.setattr("sys.stdin", io.StringIO(requests))
        assert main(["serve", str(exported)]) == 0
        lines = [json.loads(line) for line in
                 capsys.readouterr().out.strip().splitlines()]
        ready, stats, error = lines
        assert ready["ready"] and ready["num_items"] == artifact.num_items
        assert stats["ok"] and stats["stats"]["requests"] == 0
        assert not error["ok"]

    def test_serve_recommend_matches_direct_service(self, exported,
                                                    monkeypatch, capsys):
        from repro.data import DATASET_PRESETS, generate, k_core_filter
        from repro.serve import HistoryStore
        artifact = load_artifact(exported)
        dataset = k_core_filter(generate(DATASET_PRESETS["taobao"](0.1), seed=3))
        user = dataset.users[0]
        with RecommenderService(artifact,
                                HistoryStore.from_dataset(dataset)) as svc:
            expected = [r.item for r in svc.recommend(user, k=5)]
        requests = "\n".join([
            json.dumps({"op": "recommend", "user": user, "k": 5}),
            json.dumps({"op": "quit"}),
        ])
        monkeypatch.setattr("sys.stdin", io.StringIO(requests))
        assert main(["serve", str(exported)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert json.loads(lines[1])["items"] == expected

    def test_serve_corpus_mismatch_detected(self, exported, monkeypatch,
                                            capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert main(["serve", str(exported), "--scale", "0.3"]) == 2
        assert "mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["flipped", "truncated"])
    def test_serve_refuses_damaged_artifact(self, exported, damaged, kind,
                                            capsys):
        bad = damaged(exported, kind)
        assert main(["serve", str(bad)]) == 2
        err = capsys.readouterr().err.strip()
        assert str(bad) in err and "\n" not in err

    def test_serve_refuses_unreadable_path(self, tmp_path, capsys):
        for path in (tmp_path / "missing.npz", tmp_path):
            assert main(["serve", str(path)]) == 2
            err = capsys.readouterr().err.strip()
            assert str(path) in err and "\n" not in err

    def test_serve_metrics_out_dumps_final_snapshot(self, exported, tmp_path,
                                                    monkeypatch, capsys):
        from repro.data import DATASET_PRESETS, generate, k_core_filter
        dataset = k_core_filter(generate(DATASET_PRESETS["taobao"](0.1), seed=3))
        metrics_path = tmp_path / "metrics.json"
        requests = "\n".join([
            json.dumps({"op": "recommend", "user": dataset.users[0], "k": 3}),
            json.dumps({"op": "quit"}),
        ])
        monkeypatch.setattr("sys.stdin", io.StringIO(requests))
        assert main(["serve", str(exported),
                     "--metrics-out", str(metrics_path)]) == 0
        capsys.readouterr()
        snapshot = json.loads(metrics_path.read_text(encoding="utf-8"))
        assert snapshot["stdin"] == {"requests": 1, "errors": 0}
        backend = snapshot["backend"]
        assert backend["requests"] == 1
        assert backend["errors"] == 0
        assert "stages" in backend and "total" in backend["stages"]

    def _serve_lines(self, exported, tmp_path, monkeypatch, capsys,
                     lines: list[str]) -> tuple[list[dict], dict]:
        metrics_path = tmp_path / "metrics.json"
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(
            lines + [json.dumps({"op": "quit"})])))
        assert main(["serve", str(exported),
                     "--metrics-out", str(metrics_path)]) == 0
        answers = [json.loads(line) for line in
                   capsys.readouterr().out.strip().splitlines()[1:]]
        return answers, json.loads(metrics_path.read_text(encoding="utf-8"))

    def test_serve_loop_counts_error_answers(self, exported, tmp_path,
                                             monkeypatch, capsys):
        from repro.data import DATASET_PRESETS, generate, k_core_filter
        user = k_core_filter(
            generate(DATASET_PRESETS["taobao"](0.1), seed=3)).users[0]
        answers, snapshot = self._serve_lines(
            exported, tmp_path, monkeypatch, capsys, [
                "not json",
                json.dumps({"user": 2.9}),
                json.dumps({"op": "nope"}),
                json.dumps({"op": "append", "user": user, "item": 1,
                            "behavior": "teleport"}),
                json.dumps({"op": "recommend", "user": user, "k": 3}),
            ])
        assert [answer["ok"] for answer in answers] == [False] * 4 + [True]
        assert snapshot["stdin"] == {"requests": 5, "errors": 4}
        assert snapshot["backend"]["requests"] == 1

    def test_service_errors_counted_once_per_block(self, exported, tmp_path,
                                                    monkeypatch, capsys):
        answers, snapshot = self._serve_lines(
            exported, tmp_path, monkeypatch, capsys,
            [json.dumps({"op": "recommend", "user": 10 ** 9})])
        assert not answers[0]["ok"]
        assert snapshot["stdin"] == {"requests": 1, "errors": 1}
        assert snapshot["backend"]["errors"] == 1

    def test_serve_events_out_renders_request_spans(self, exported, tmp_path,
                                                    monkeypatch, capsys):
        from repro.data import DATASET_PRESETS, generate, k_core_filter
        dataset = k_core_filter(generate(DATASET_PRESETS["taobao"](0.1), seed=3))
        events_path = tmp_path / "serve.jsonl"
        requests = "\n".join([
            json.dumps({"op": "recommend", "user": dataset.users[0], "k": 3}),
            json.dumps({"op": "quit"}),
        ])
        monkeypatch.setattr("sys.stdin", io.StringIO(requests))
        assert main(["serve", str(exported),
                     "--events-out", str(events_path)]) == 0
        capsys.readouterr()
        assert main(["obs", str(events_path)]) == 0
        out = capsys.readouterr().out
        assert "serve.request" in out and "serve.batch" in out
        assert "serve.encode" in out
        assert "serve.requests" in out  # counters from the final snapshot
        assert "serve.latency.total" in out


class TestNetworkTelemetry:
    """``--listen --events-out --metrics-out``: request correlation end to end.

    The CLI's network mode installs signal handlers, so the test drives a
    real ``python -m repro serve`` subprocess: requests go over TCP, and the
    spans come back through the events file.
    """

    def serve_listen(self, exported, tmp_path, requests):
        events_path = tmp_path / "net.jsonl"
        metrics_path = tmp_path / "net-metrics.json"
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(exported),
             "--listen", "127.0.0.1:0",
             "--events-out", str(events_path),
             "--metrics-out", str(metrics_path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        responses = []
        try:
            ready_line = []

            def read_ready():
                ready_line.append(process.stdout.readline())

            reader = threading.Thread(target=read_ready, daemon=True)
            reader.start()
            reader.join(timeout=180.0)
            assert ready_line and ready_line[0], (
                f"server never became ready: {process.stderr.read()!r}")
            ready = json.loads(ready_line[0])
            assert ready["ready"]
            with NetClient(ready["host"], ready["port"],
                           connect_retries=20) as client:
                for request in requests:
                    responses.append(client.request(request))
        finally:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=60.0)
            except subprocess.TimeoutExpired:
                process.kill()
                raise
        assert process.returncode == 0, process.stderr.read()
        return events_path, metrics_path, responses

    def test_request_ids_correlate_through_the_trace(self, exported, tmp_path,
                                                     capsys):
        from repro.data import DATASET_PRESETS, generate, k_core_filter
        from repro.obs import read_events
        dataset = k_core_filter(generate(DATASET_PRESETS["taobao"](0.1),
                                         seed=3))
        users = dataset.users[:4]
        requests = [{"op": "recommend", "user": user, "k": 3}
                    for user in users]
        requests.append({"op": "recommend"})  # malformed: no user
        events_path, metrics_path, responses = self.serve_listen(
            exported, tmp_path, requests)

        for response in responses[:-1]:
            assert response["ok"], response
        error = responses[-1]
        assert not error["ok"]
        assert error["request_id"].startswith("req-")  # correlation token

        spans = [e for e in read_events(events_path) if e["type"] == "span"]
        by_id = {s["span_id"]: s for s in spans}
        front = [s for s in spans if s["name"] == "net.request"]
        served = [s for s in spans if s["name"] == "serve.request"]
        # the malformed request is rejected before dispatch: no span for it
        assert len(front) == len(served) == len(users)
        assert all(s["request_id"].startswith("req-") for s in front)
        assert len({s["request_id"] for s in front}) == len(users)
        # every service span hangs under its front-end request and carries
        # the same end-to-end request id
        for child in served:
            parent = by_id[child["parent_id"]]
            assert parent["name"] == "net.request"
            assert child["trace_id"] == parent["trace_id"]
            assert child["request_id"] == parent["request_id"]

        # --metrics-out carries the front-end and service counters
        snapshot = json.loads(metrics_path.read_text(encoding="utf-8"))
        assert snapshot["net"]["requests"] == len(users)  # dispatched only
        assert snapshot["net"]["errors"] == 1
        assert snapshot["backend"]["requests"] == len(users)

        # one obs invocation renders the request tree
        assert main(["obs", str(events_path)]) == 0
        out = capsys.readouterr().out
        assert "net.request" in out
        assert "serve.request" in out
        assert "serve.batch" in out
        assert "serve.net.requests" in out  # counters from the final snapshot
