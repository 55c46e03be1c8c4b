"""Network serving tests: socket parity, strict parsing, shedding, drain.

The acceptance bar for the network tier is *parity through a real socket*:
answers served over TCP must equal ``RecommenderService.recommend`` for the
same artifact and requests, at every index backend.
"""

import json
import threading
import time

import pytest

from repro.serve import (HistoryStore, LocalBackend, NetClient, NetServer,
                         RecommenderService, normalize_request, run_load)


def reference_answers(artifact, dataset, users, k, index_backend="exact"):
    """In-process ground truth for socket parity comparisons."""
    service = RecommenderService(artifact, HistoryStore.from_dataset(dataset),
                                 index_backend=index_backend)
    try:
        return {user: [(r.item, r.score) for r in service.recommend(user, k=k)]
                for user in users}
    finally:
        service.close()


@pytest.fixture
def parity_users(history):
    return history.users[:6]


def local_backend(artifact, dataset, **options):
    return LocalBackend(RecommenderService(
        artifact, HistoryStore.from_dataset(dataset), **options))


def start_server(backend, **kwargs):
    server = NetServer(backend, **kwargs)
    host, port = server.start_background()
    return server, host, port



class TestNormalizeRequest:
    def test_recommend_defaults_k(self):
        op = normalize_request({"user": 3}, default_k=7)
        assert op == {"op": "recommend", "user": 3, "k": 7}

    def test_append_shape(self):
        op = normalize_request({"op": "append", "user": 1, "item": 2,
                               "behavior": "view"})
        assert op["timestamp"] is None

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown op"):
            normalize_request({"op": "destroy"})

    def test_missing_user_raises_keyerror(self):
        with pytest.raises(KeyError):
            normalize_request({"op": "recommend"})

    @pytest.mark.parametrize("field, value", [
        ("user", 2.9), ("user", float("inf")), ("user", True), ("user", "3"),
        ("k", True), ("k", 2.0), ("k", None), ("item", 1.0),
        ("timestamp", 1.5), ("timestamp", False)])
    def test_non_integer_fields_rejected_not_coerced(self, field, value):
        request = {"op": "append" if field in ("item", "timestamp")
                   else "recommend",
                   "user": 1, "item": 2, "behavior": "view", field: value}
        with pytest.raises(ValueError, match=f"'{field}' must be a JSON integer"):
            normalize_request(request)

    def test_huge_integers_pass_through_unchanged(self):
        op = normalize_request({"user": 10 ** 400, "k": 2 ** 70})
        assert op == {"op": "recommend", "user": 10 ** 400, "k": 2 ** 70}


class TestLocalBackendOverSocket:
    def test_parity_and_protocol(self, artifact, tiny_dataset, parity_users):
        expected = reference_answers(artifact, tiny_dataset, parity_users, k=5)
        backend = local_backend(artifact, tiny_dataset)
        server, host, port = start_server(backend, max_inflight=8)
        try:
            with NetClient(host, port) as client:
                for user in parity_users:
                    response = client.recommend(user, k=5)
                    assert response["ok"], response
                    got = list(zip(response["items"], response["scores"]))
                    assert got == expected[user]
                stats = client.stats()
                assert stats["ok"]
                assert stats["stats"]["net"]["requests"] >= len(parity_users)
                report = client.report()
                assert report["ok"] and "qps" in report["report"]
        finally:
            server.stop()
            backend.close()

    def test_malformed_requests_get_error_responses(self, artifact,
                                                    tiny_dataset):
        backend = local_backend(artifact, tiny_dataset)
        server, host, port = start_server(backend)
        try:
            with NetClient(host, port) as client:
                missing = client.request({"op": "recommend"})
                assert not missing["ok"] and "user" in missing["error"]
                unknown = client.request({"op": "explode"})
                assert not unknown["ok"] and "unknown op" in unknown["error"]
                absent = client.recommend(10_000_000)
                assert not absent["ok"] and "not in the history" in absent["error"]
                client._file.write(b"this is not json\n")
                client._file.flush()
                bad = json.loads(client._file.readline())
                assert not bad["ok"] and "bad json" in bad["error"]
                # the connection survives every error above
                assert client.stats()["ok"]
        finally:
            server.stop()
            backend.close()

    def test_quit_closes_the_connection(self, artifact, tiny_dataset):
        backend = local_backend(artifact, tiny_dataset)
        server, host, port = start_server(backend)
        try:
            client = NetClient(host, port)
            with pytest.raises(ConnectionError):
                client.request({"op": "quit"})
            client.close()
        finally:
            server.stop()
            backend.close()


    def test_append_then_recommend_over_socket(self, artifact, tiny_dataset):
        backend = local_backend(artifact, tiny_dataset)
        server, host, port = start_server(backend)
        user = tiny_dataset.users[0]
        behavior = tiny_dataset.schema.behaviors[0]
        try:
            with NetClient(host, port) as client:
                first = client.append(user, 3, behavior)
                assert first["ok"] and first["version"] == 1
                second = client.append(user, 4, behavior)
                assert second["ok"] and second["version"] == 2
                response = client.recommend(user, k=5)
                assert response["ok"]
                assert 3 not in response["items"]  # seen items stay excluded
        finally:
            server.stop()
            backend.close()


class TestSocketParity:
    @pytest.mark.parametrize("index_backend", ["exact", "ivf"])
    def test_socket_answers_match_in_process(self, artifact, tiny_dataset,
                                             parity_users, index_backend):
        options = {"index_backend": index_backend}
        if index_backend == "ivf":
            options["index_options"] = {"nlist": 8, "nprobe": 4, "seed": 0}
        service = RecommenderService(
            artifact, HistoryStore.from_dataset(tiny_dataset), **options)
        expected = {user: [(r.item, r.score)
                           for r in service.recommend(user, k=5)]
                    for user in parity_users}
        service.close()
        backend = local_backend(artifact, tiny_dataset, **options)
        server, host, port = start_server(backend, max_inflight=16)
        try:
            with NetClient(host, port) as client:
                for user in parity_users:
                    response = client.recommend(user, k=5)
                    assert response["ok"], response
                    got = list(zip(response["items"], response["scores"]))
                    assert got == expected[user], (index_backend, user)
        finally:
            server.stop()
            backend.close()


class _StubBackend:
    """Deterministic stand-in so front-end behavior tests need no model."""

    def __init__(self, delay=0.0):
        self.delay = delay
        self.calls = 0

    def process(self, op):
        self.calls += 1
        if self.delay:
            time.sleep(self.delay)
        return {"ok": True, "user": op.get("user"), "items": [], "scores": []}

    def close(self):
        pass


class TestFrontEndDiscipline:
    def test_overload_sheds_instead_of_queueing(self):
        backend = _StubBackend(delay=0.5)
        server, host, port = start_server(backend, max_inflight=1)
        try:
            slow = NetClient(host, port)
            fast = NetClient(host, port)
            done = {}

            def long_request():
                done["slow"] = slow.recommend(1)

            thread = threading.Thread(target=long_request)
            thread.start()
            time.sleep(0.15)  # let the slow request occupy the one slot
            shed = fast.recommend(2)
            thread.join(timeout=10.0)
            assert shed["shed"] is True and not shed["ok"]
            assert "overloaded" in shed["error"]
            assert done["slow"]["ok"]
            slow.close()
            fast.close()
            assert server.net_stats()["shed"] == 1
        finally:
            server.stop()
            backend.close()

    def test_read_timeout_drops_silent_connections(self):
        backend = _StubBackend()
        server, host, port = start_server(backend, read_timeout=0.2)
        try:
            client = NetClient(host, port)
            started = time.monotonic()
            line = client._file.readline()  # server closes on us; EOF
            assert line == b""
            assert time.monotonic() - started < 5.0
            client.close()
            assert server.net_stats()["read_timeouts"] == 1
        finally:
            server.stop()
            backend.close()

    def test_graceful_drain_finishes_inflight_then_refuses(self):
        backend = _StubBackend(delay=0.4)
        server, host, port = start_server(backend, drain_grace=5.0)
        try:
            client = NetClient(host, port)
            outcome = {}

            def inflight():
                outcome["response"] = client.recommend(1)

            thread = threading.Thread(target=inflight)
            thread.start()
            time.sleep(0.1)
            server.stop()  # drain: must wait for the in-flight request
            thread.join(timeout=10.0)
            assert outcome["response"]["ok"]
            client.close()
            with pytest.raises(ConnectionError):
                NetClient(host, port, connect_retries=2, retry_delay=0.02)
        finally:
            server.stop()
            backend.close()


class TestLoadGenerator:
    def test_closed_loop_accounting(self, artifact, tiny_dataset, history):
        backend = local_backend(artifact, tiny_dataset)
        server, host, port = start_server(backend, max_inflight=8)
        try:
            report = run_load(host, port, history.users[:10], connections=2,
                              target_qps=100.0, total_requests=40, warmup=8,
                              k=5, seed=0)
            assert report.sent == 40
            assert report.ok == 40 and report.shed == 0 and report.errors == 0
            assert len(report.latencies_ms) == 32  # warmup excluded
            assert report.percentile(99.0) >= report.percentile(50.0)
            payload = report.to_dict()
            assert payload["achieved_qps"] > 0
        finally:
            server.stop()
            backend.close()
