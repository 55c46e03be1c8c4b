"""Request-protocol robustness on both front-ends.

The TCP :class:`~repro.serve.NetServer` and the ``repro serve`` stdin loop
parse every line through :func:`~repro.serve.normalize_request`.  Whatever a
client sends, each line gets exactly one response line, and a valid request
sent afterwards is answered exactly as ``RecommenderService.recommend``
answers it.
"""

import io
import json
import os
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.cli import main
from repro.serve import (HistoryStore, LocalBackend, NetClient, NetServer,
                         RecommenderService, normalize_request)

MALFORMED_LINES = [
    # (raw request line, substring expected in the error response)
    (b"[1,2,3]", "JSON object"),
    (b'"recommend"', "JSON object"),
    (b"null", "JSON object"),
    (b'{"user": 1e400}', "'user' must be a JSON integer"),
    (b'{"user": 0, "k": 1e400}', "'k' must be a JSON integer"),
    (b'{"op": "append", "user": 0, "item": 1e400, "behavior": "buy"}',
     "'item' must be a JSON integer"),
    (b'{"user": 2.9}', "'user' must be a JSON integer"),
    (b'{"user": 0, "k": true}', "'k' must be a JSON integer"),
    (b'{"op": "append", "user": 0, "item": 1, "behavior": "buy", '
     b'"timestamp": 1.5}', "'timestamp' must be a JSON integer"),
    (b'{"op": "append", "user": 0, "item": 1, "behavior": 7}',
     "'behavior' must be a JSON string"),
    (b"not json", "Expecting value"),
    (b"[" * 5000, "recursion"),
]

_scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-(1 << 70), max_value=1 << 70),
    st.sampled_from([10 ** 400, -(10 ** 400), 1 << 63, 1 << 64]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8))
json_values = st.recursive(
    _scalars,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=6), children,
                                        max_size=4)),
    max_leaves=12)
requests = st.fixed_dictionaries({}, optional={
    "op": st.sampled_from(["recommend", "append", "stats", "report",
                           "bogus"]) | json_values,
    "user": st.integers(min_value=-2, max_value=40) | json_values,
    "k": st.integers(min_value=-2, max_value=12) | json_values,
    "item": st.integers(min_value=-2, max_value=100) | json_values,
    "behavior": st.sampled_from(["buy", "cart", "fav", "click"]) | json_values,
    "timestamp": st.integers() | json_values,
})


def _is_quit(request) -> bool:
    return isinstance(request, dict) and request.get("op") == "quit"


@settings(max_examples=150, deadline=None)
@given(json_values | requests)
def test_normalize_request_returns_an_op_or_raises_a_request_error(request):
    try:
        op = normalize_request(request, default_k=10)
    except (KeyError, ValueError, TypeError):
        return
    assert op["op"] in ("recommend", "append", "stats", "report")


@pytest.fixture(scope="module")
def live_server(artifact, tiny_dataset):
    backend = LocalBackend(RecommenderService(
        artifact, HistoryStore.from_dataset(tiny_dataset)))
    server = NetServer(backend)
    host, port = server.start_background()
    client = NetClient(host, port)
    yield server, client
    client.close()
    server.stop()
    backend.close()


@pytest.fixture(scope="module")
def reference(artifact, tiny_dataset):
    """The probe user (never appended to by the fuzz) and its answer."""
    user = tiny_dataset.users[0]
    with RecommenderService(artifact,
                            HistoryStore.from_dataset(tiny_dataset)) as service:
        recs = service.recommend(user, k=5)
    return user, [[r.item for r in recs], [r.score for r in recs]]


class TestNetServerConnection:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(json_values | requests, min_size=1, max_size=4))
    def test_one_response_per_line_then_exact_answers(self, live_server,
                                                      reference, batch):
        _, client = live_server
        user, expected = reference
        lines = [request for request in batch if not _is_quit(request)
                 and not (isinstance(request, dict)
                          and request.get("user") == user)]
        for request in lines:
            client._file.write(json.dumps(request).encode("utf-8") + b"\n")
        client._file.flush()
        for _ in lines:
            response = json.loads(client._file.readline())
            assert isinstance(response, dict) and "ok" in response
        response = client.recommend(user, k=5)
        assert [response["items"], response["scores"]] == expected

    def test_fixed_bad_lines_each_get_an_error(self, live_server, reference):
        _, client = live_server
        for line, message in MALFORMED_LINES:
            client._file.write(line + b"\n")
            client._file.flush()
            response = json.loads(client._file.readline())
            assert not response["ok"], line
            assert message in response["error"], (line, response)
        user, expected = reference
        response = client.recommend(user, k=5)
        assert [response["items"], response["scores"]] == expected

    def test_over_limit_line_answered_then_closed(self, live_server):
        server, client = live_server
        host, port = server.address
        errors = server.net_stats()["errors"]
        with socket.create_connection((host, port), timeout=30.0) as raw:
            stream = raw.makefile("rwb")
            stream.write(b'{"user": "' + b"x" * (1 << 17) + b'"}\n')
            stream.flush()
            response = json.loads(stream.readline())
            assert not response["ok"] and "exceeds" in response["error"]
            assert stream.readline() == b""  # that connection is closed
        assert client.stats()["ok"]  # the server and other peers are not
        assert server.net_stats()["errors"] == errors + 1


    def test_mid_line_disconnects_leave_the_server_serving(self, live_server,
                                                          reference):
        """A client that hangs up mid-line, or after a full line but before
        reading the reply, costs nothing but its own connection."""
        server, client = live_server
        host, port = server.address
        user, expected = reference
        with socket.create_connection((host, port), timeout=30.0) as raw:
            raw.sendall(b'{"op": "recommend", "us')
        for _ in range(3):
            with socket.create_connection((host, port), timeout=30.0) as raw:
                raw.sendall(json.dumps({"user": user, "k": 5}).encode() + b"\n")
        deadline = time.monotonic() + 10.0
        while server.net_stats()["inflight"] and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.net_stats()["inflight"] == 0
        response = client.recommend(user, k=5)
        assert [response["items"], response["scores"]] == expected
        with NetClient(host, port) as fresh:
            response = fresh.recommend(user, k=5)
        assert [response["items"], response["scores"]] == expected


def _fail_once(interests):
    """``interests`` that raises one unexpected error, then behaves."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise FloatingPointError("overflow in the encoder")
        return interests(*args, **kwargs)
    return wrapped


class TestUnexpectedBackendErrors:
    """An exception nobody anticipated is answered, logged and counted; the
    connection or the stdin loop keeps serving."""

    def test_socket_answers_then_keeps_serving(self, artifact, tiny_dataset,
                                               reference):
        user, expected = reference
        service = RecommenderService(artifact,
                                     HistoryStore.from_dataset(tiny_dataset))
        service.encoder.interests = _fail_once(service.encoder.interests)
        backend = LocalBackend(service)
        server = NetServer(backend)
        host, port = server.start_background()
        try:
            with NetClient(host, port) as client:
                failed = client.recommend(user, k=5)
                assert not failed["ok"]
                assert failed["error"] == ("internal error: FloatingPointError:"
                                           " overflow in the encoder")
                assert failed["request_id"].startswith("req-")
                response = client.recommend(user, k=5)
                assert [response["items"], response["scores"]] == expected
            assert server.net_stats()["errors"] == 1
        finally:
            server.stop()
            backend.close()

    def test_stdin_loop_answers_then_keeps_serving(self, exported,
                                                   monkeypatch, capsys):
        from repro.serve.encoder import MisslServingEncoder
        monkeypatch.setattr(MisslServingEncoder, "interests",
                            _fail_once(MisslServingEncoder.interests))
        lines = [json.dumps({"op": "recommend", "user": 0, "k": 3}),
                 json.dumps({"op": "recommend", "user": 0, "k": 3})]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        assert main(["serve", str(exported)]) == 0
        responses = [json.loads(line) for line in
                     capsys.readouterr().out.strip().splitlines()[1:]]
        assert len(responses) == 2
        assert not responses[0]["ok"]
        assert responses[0]["error"].startswith(
            "internal error: FloatingPointError: overflow in the encoder")
        assert responses[0]["request_id"].startswith("req-")
        assert responses[1]["ok"] and len(responses[1]["items"]) == 3


def _stdin_requests(user: int) -> bytes:
    lines = [line for line, _ in MALFORMED_LINES]
    lines.append(json.dumps({"op": "recommend", "user": user,
                             "k": 3}).encode("utf-8"))
    return b"\n".join(lines) + b"\n"


class TestStdinLoop:
    def test_bad_lines_in_process(self, exported, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin",
                            io.StringIO(_stdin_requests(0).decode("utf-8")))
        assert main(["serve", str(exported)]) == 0
        responses = [json.loads(line) for line in
                     capsys.readouterr().out.strip().splitlines()[1:]]
        assert len(responses) == len(MALFORMED_LINES) + 1
        for (line, message), response in zip(MALFORMED_LINES, responses):
            assert not response["ok"] and message in response["error"], line
        assert responses[-1]["ok"] and len(responses[-1]["items"]) == 3

    def test_bad_lines_in_a_subprocess(self, exported):
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run(
            [sys.executable, "-m", "repro", "serve", str(exported)],
            input=_stdin_requests(0), capture_output=True, env=env,
            timeout=120)
        assert done.returncode == 0, done.stderr.decode()
        lines = done.stdout.decode("utf-8").strip().splitlines()
        assert json.loads(lines[0])["ready"]
        responses = [json.loads(line) for line in lines[1:]]
        assert len(responses) == len(MALFORMED_LINES) + 1
        assert not any(response["ok"] for response in responses[:-1])
        assert responses[-1]["ok"] and len(responses[-1]["items"]) == 3
