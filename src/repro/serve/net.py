"""Network serving tier: NDJSON front-end, in-process backend, load generator.

This module turns the in-process :class:`~repro.serve.service.RecommenderService`
into a network service without changing a single scoring code path — the
acceptance bar is *parity through a real socket*: a recommend answered over
TCP is byte-for-byte the answer ``RecommenderService.recommend`` gives for
the same artifact and request.

Three layers:

* :func:`normalize_request` — the one request parser, shared with the CLI's
  stdin loop (``op`` ∈ recommend / append / stats / report; ``quit`` closes
  a connection).  Integer fields must be JSON integers; anything else is a
  ``ValueError`` naming the field.
* :class:`NetServer` — an asyncio TCP front-end speaking newline-delimited
  JSON.  Connections get per-read timeouts (slow or silent peers are
  dropped, never accumulated), the number of in-flight requests is bounded
  with *explicit load shedding* — an over-limit request is answered
  immediately with ``{"ok": false, "shed": true}`` instead of queueing
  without bound — and ``SIGTERM``/``SIGINT`` trigger a graceful drain:
  stop accepting, finish what is executing, exit.  :class:`LocalBackend`
  executes requests on one in-process service, whose micro-batcher
  aggregates the executor threads' concurrent submits.
* :class:`NetClient` and :func:`run_load` — a blocking NDJSON client and a
  closed-loop load generator (K persistent connections pacing a target
  aggregate QPS, warmup excluded from the measured window) used by the
  parity tests, the serve smoke and ``benchmarks/bench_p8_fleet_obs.py``.

``BLOCKING-IO-CONTAINMENT`` (see :mod:`repro.lint`) pins every raw socket
and blocking ``recv``/``sendall`` in the tree to this module, so the async
front-end can never silently grow a blocking call outside the executor.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import signal
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.obs import get_logger, get_telemetry, span
from repro.obs.metrics import MetricsRegistry

from .service import RecommenderService

__all__ = [
    "LoadReport",
    "LocalBackend",
    "NetClient",
    "NetServer",
    "internal_error",
    "normalize_request",
    "request_ids",
    "run_load",
]

_log = get_logger(__name__)

_LINE_LIMIT = 1 << 16
"""Longest request line the front-end frames (asyncio's default limit)."""


# ----------------------------------------------------------------------
# Request schema (shared with the CLI stdin loop)
# ----------------------------------------------------------------------

def _integer(request: dict, name: str, default=None):
    """``request[name]`` as a JSON integer (``bool`` is not one); ``default``
    when absent, ``KeyError`` when absent without a default."""
    value = request[name] if default is None else request.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name!r} must be a JSON integer, "
                         f"got {type(value).__name__}")
    return value


def normalize_request(request, default_k: int = 10) -> dict:
    """Validate one decoded JSON request into a canonical op dict.

    The only request parser: the TCP front-end and the CLI stdin loop both
    call it.  Raises ``KeyError`` for a missing field and ``ValueError``
    for anything else malformed — a non-object request, an unknown op, or
    a ``user`` / ``item`` / ``k`` / ``timestamp`` that is not a JSON
    integer (floats and booleans are rejected, never coerced).
    """
    if not isinstance(request, dict):
        raise ValueError(f"request must be a JSON object, "
                         f"got {type(request).__name__}")
    op = request.get("op", "recommend")
    if op == "recommend":
        return {"op": "recommend", "user": _integer(request, "user"),
                "k": _integer(request, "k", default_k)}
    if op == "append":
        behavior = request["behavior"]
        if not isinstance(behavior, str):
            raise ValueError(f"'behavior' must be a JSON string, "
                             f"got {type(behavior).__name__}")
        timestamp = request.get("timestamp")
        return {"op": "append", "user": _integer(request, "user"),
                "item": _integer(request, "item"), "behavior": behavior,
                "timestamp": (None if timestamp is None
                              else _integer(request, "timestamp"))}
    if op in ("stats", "report"):
        return {"op": op}
    raise ValueError(f"unknown op {op!r} (expected recommend/append/stats/report)")


def request_ids():
    """Process-unique request ids, ``req-<pid in hex>-<n>`` for n = 1, 2, …"""
    prefix = f"req-{os.getpid():x}-"
    return (f"{prefix}{n}" for n in itertools.count(1))


def internal_error(error: Exception, request_id: str) -> dict:
    """The answer to a request whose backend raised unexpectedly.

    Both front-ends call this at their request boundary: the traceback goes
    to the log under ``request_id``, the client gets the exception's type
    and message, and the connection (or stdin loop) keeps serving.
    """
    _log.error("request %s failed", request_id, exc_info=error)
    return {"ok": False, "request_id": request_id,
            "error": f"internal error: {type(error).__name__}: {error}"}


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------

class LocalBackend:
    """One in-process service behind the front-end.

    The executor threads' concurrent :meth:`process` calls all funnel into
    the service's existing micro-batcher, so network concurrency turns into
    batched encodes exactly like in-process concurrency does.
    """

    def __init__(self, service: RecommenderService):
        self.service = service

    def process(self, op: dict) -> dict:
        """Execute one normalized op; raises the service's validation
        errors (the server formats them)."""
        if op["op"] == "recommend":
            recs = self.service.recommend(op["user"], k=op["k"])
            return {"ok": True, "user": op["user"],
                    "items": [int(r.item) for r in recs],
                    "scores": [float(r.score) for r in recs]}
        if op["op"] == "append":
            version = self.service.append_event(
                op["user"], op["item"], op["behavior"],
                timestamp=op["timestamp"])
            return {"ok": True, "user": op["user"], "version": version}
        if op["op"] == "stats":
            return {"ok": True, "stats": self.service.stats()}
        if op["op"] == "report":
            return {"ok": True, "report": self.service.report()}
        raise ValueError(f"unknown op {op['op']!r}")

    def stats(self) -> dict:
        return self.service.stats()

    def report(self) -> str:
        return self.service.report()

    def close(self) -> None:
        self.service.close()


# ----------------------------------------------------------------------
# Async TCP front-end
# ----------------------------------------------------------------------

class NetServer:
    """Newline-delimited-JSON TCP front-end over a serving backend.

    Args:
        backend: a :class:`LocalBackend` (not owned — the caller closes it
            after :meth:`stop`).
        host / port: bind address; port 0 picks a free port (read
            :attr:`address` after start).
        max_inflight: bound on concurrently executing requests across all
            connections; a request over the bound is *shed* with an explicit
            ``{"ok": false, "shed": true}`` response, never queued.
        read_timeout: per-connection seconds to wait for the next request
            line before dropping the connection.
        drain_grace: seconds a drain waits for in-flight requests.
        default_k: ``k`` for recommend requests that omit it.
        registry: metrics registry for the ``serve.net.*`` counters.
    """

    def __init__(self, backend, host: str = "127.0.0.1", port: int = 0, *,
                 max_inflight: int = 64, read_timeout: float = 30.0,
                 drain_grace: float = 10.0, default_k: int = 10,
                 registry: MetricsRegistry | None = None):
        if max_inflight < 1:
            raise ValueError("max_inflight must be positive")
        self.backend = backend
        self.host = host
        self.port = port
        self.max_inflight = max_inflight
        self.read_timeout = read_timeout
        self.drain_grace = drain_grace
        self.default_k = default_k
        self.registry = registry if registry is not None else MetricsRegistry()
        self._connections = self.registry.counter("serve.net.connections")
        self._requests = self.registry.counter("serve.net.requests")
        self._shed_count = self.registry.counter("serve.net.shed")
        self._errors = self.registry.counter("serve.net.errors")
        self._read_timeouts = self.registry.counter("serve.net.read_timeouts")
        self._inflight_gauge = self.registry.gauge("serve.net.inflight")
        self._request_seconds = self.registry.histogram("net.request.seconds")
        self._dispatch_seconds = self.registry.histogram(
            "net.request.dispatch_seconds")
        # Correlates one request's response, its ``net.request`` span and
        # the service spans under it.
        self._request_ids = request_ids()
        self.address: tuple[str, int] | None = None
        self._inflight = 0
        self._draining = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._drain_requested: asyncio.Event | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._conn_tasks: set = set()
        self._started = threading.Event()
        self._stopped = threading.Event()
        self._thread: threading.Thread | None = None
        self._failure: BaseException | None = None

    # -- lifecycle -------------------------------------------------------
    def run(self, install_signals: bool = True) -> None:
        """Serve until drained (blocking; the CLI entry point)."""
        try:
            asyncio.run(self._main(install_signals))
        except BaseException as error:
            self._failure = error
            raise
        finally:
            self._started.set()
            self._stopped.set()

    def start_background(self, timeout: float = 30.0) -> tuple[str, int]:
        """Run the server on a daemon thread; returns the bound address."""
        self._thread = threading.Thread(
            target=self._run_quietly, daemon=True, name="repro-net-server")
        self._thread.start()
        if not self._started.wait(timeout) or self.address is None:
            raise RuntimeError(
                f"server failed to start: {self._failure or 'timeout'}")
        return self.address

    def _run_quietly(self) -> None:
        try:
            self.run(install_signals=False)
        except BaseException:  # surfaced via start_background/stop
            pass

    def drain(self) -> None:
        """Begin a graceful drain (threadsafe; signal handlers call this):
        stop accepting, finish in-flight requests, exit the serve loop."""
        self._draining = True
        loop = self._loop
        if loop is not None and self._drain_requested is not None:
            try:
                loop.call_soon_threadsafe(self._drain_requested.set)
            except RuntimeError:  # loop already closed
                pass

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the serve loop exits (drain completed); True when it
        did within ``timeout``."""
        return self._stopped.wait(timeout)

    def stop(self, timeout: float = 30.0) -> None:
        """Drain and wait for the serve loop to exit."""
        self.drain()
        if self._thread is not None:
            self._thread.join(timeout)
        else:
            self._stopped.wait(timeout)

    # -- event loop ------------------------------------------------------
    async def _main(self, install_signals: bool) -> None:
        self._loop = asyncio.get_running_loop()
        self._drain_requested = asyncio.Event()
        if self._draining:  # drain() won the race before the loop existed
            self._drain_requested.set()
        self._executor = ThreadPoolExecutor(
            max_workers=min(self.max_inflight, 64),
            thread_name_prefix="repro-net")
        server = await asyncio.start_server(self._handle_connection,
                                            self.host, self.port,
                                            limit=_LINE_LIMIT)
        self.address = server.sockets[0].getsockname()[:2]
        if install_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    self._loop.add_signal_handler(signum, self.drain)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass  # non-main thread or unsupported platform
        self._started.set()
        _log.info("serving on %s:%d (max in-flight %d)",
                  self.address[0], self.address[1], self.max_inflight)
        try:
            await self._drain_requested.wait()
            server.close()
            await server.wait_closed()
            deadline = self._loop.time() + self.drain_grace
            while self._inflight > 0 and self._loop.time() < deadline:
                await asyncio.sleep(0.02)
            for writer in list(self._writers):
                writer.close()
            pending = [task for task in self._conn_tasks if not task.done()]
            if pending:
                await asyncio.wait(pending, timeout=2.0)
            _log.info("drained (%d requests served)", self._requests.value)
        finally:
            self._executor.shutdown(wait=False)

    async def _send(self, writer: asyncio.StreamWriter, response: dict) -> None:
        writer.write(json.dumps(response).encode("utf-8") + b"\n")
        await writer.drain()

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._connections.inc()
        self._writers.add(writer)
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while not self._draining:
                try:
                    line = await asyncio.wait_for(reader.readline(),
                                                  self.read_timeout)
                except asyncio.TimeoutError:
                    self._read_timeouts.inc()
                    break
                except ValueError:
                    # Over the stream limit: the rest of the line cannot be
                    # framed, so answer once and drop the connection.
                    self._errors.inc()
                    await self._send(writer, {
                        "ok": False,
                        "error": f"request line exceeds {_LINE_LIMIT} bytes"})
                    break
                except (ConnectionError, OSError):
                    break
                if not line:
                    break
                text = line.strip()
                if not text:
                    continue
                try:
                    request = json.loads(text)
                except (ValueError, RecursionError) as error:
                    self._errors.inc()
                    await self._send(writer, {"ok": False,
                                              "error": f"bad json: {error}"})
                    continue
                if isinstance(request, dict) and request.get("op") == "quit":
                    break
                request_id = next(self._request_ids)
                if self._inflight >= self.max_inflight:
                    self._shed_count.inc()
                    await self._send(writer, {
                        "ok": False, "shed": True,
                        "request_id": request_id,
                        "error": "overloaded: in-flight limit reached, "
                                 "retry later"})
                    continue
                try:
                    op = normalize_request(request, self.default_k)
                except (KeyError, ValueError, TypeError) as error:
                    self._errors.inc()
                    await self._send(writer, {"ok": False,
                                              "request_id": request_id,
                                              "error": str(error)})
                    continue
                self._inflight += 1
                self._inflight_gauge.set(self._inflight)
                accepted = time.monotonic()
                try:
                    response = await self._loop.run_in_executor(
                        self._executor, self._dispatch, op, request_id)
                finally:
                    self._inflight -= 1
                    self._inflight_gauge.set(self._inflight)
                self._request_seconds.record(time.monotonic() - accepted)
                self._requests.inc()
                if not response.get("ok", False):
                    self._errors.inc()
                await self._send(writer, response)
        except (ConnectionError, OSError):
            pass  # peer vanished mid-write; nothing to answer
        except asyncio.CancelledError:
            pass  # loop teardown cancelled the connection; exit quietly
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            self._writers.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _dispatch(self, op: dict, request_id: str) -> dict:
        """Execute one op on the backend (runs on an executor thread).

        With telemetry enabled the whole dispatch runs inside a
        ``net.request`` root span correlated by ``request_id``, which the
        service spans opened under it inherit.  Error responses always
        carry the ``request_id`` so a client-visible failure is greppable
        in the event log.
        """
        started = time.monotonic()
        if get_telemetry() is None:
            response = self._execute(op, request_id)
        else:
            with span("net.request", op=op["op"]) as net_span:
                net_span.request_id = request_id
                response = self._execute(op, request_id)
        self._dispatch_seconds.record(time.monotonic() - started)
        if not response.get("ok", False):
            response.setdefault("request_id", request_id)
        if op["op"] == "stats" and response.get("ok"):
            response["stats"]["net"] = self.net_stats()
        return response

    def _execute(self, op: dict, request_id: str) -> dict:
        try:
            return self.backend.process(op)
        except (KeyError, ValueError, TypeError) as error:
            return {"ok": False, "error": str(error)}
        except Exception as error:  # noqa: BLE001 - the server keeps serving
            return internal_error(error, request_id)

    def net_stats(self) -> dict:
        """The front-end's own counters (connections, sheds, timeouts)."""
        return {
            "connections": self._connections.value,
            "requests": self._requests.value,
            "shed": self._shed_count.value,
            "errors": self._errors.value,
            "read_timeouts": self._read_timeouts.value,
            "inflight": int(self._inflight_gauge.value),
            "draining": self._draining,
        }


# ----------------------------------------------------------------------
# Blocking client + closed-loop load generator
# ----------------------------------------------------------------------

class NetClient:
    """Blocking NDJSON client for :class:`NetServer` (one connection).

    Connection setup retries briefly so tests can race server startup.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0,
                 connect_retries: int = 40, retry_delay: float = 0.05):
        last: OSError | None = None
        for _ in range(max(1, connect_retries)):
            try:
                self._sock = socket.create_connection((host, port),
                                                      timeout=timeout)
                break
            except OSError as error:
                last = error
                time.sleep(retry_delay)
        else:
            raise ConnectionError(
                f"could not connect to {host}:{port}: {last}") from last
        self._file = self._sock.makefile("rwb")

    def request(self, payload: dict) -> dict:
        """Send one request line, block for its response line."""
        self._file.write(json.dumps(payload).encode("utf-8") + b"\n")
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def recommend(self, user: int, k: int | None = None) -> dict:
        payload = {"op": "recommend", "user": user}
        if k is not None:
            payload["k"] = k
        return self.request(payload)

    def append(self, user: int, item: int, behavior: str,
               timestamp: int | None = None) -> dict:
        payload = {"op": "append", "user": user, "item": item,
                   "behavior": behavior}
        if timestamp is not None:
            payload["timestamp"] = timestamp
        return self.request(payload)

    def stats(self) -> dict:
        return self.request({"op": "stats"})

    def report(self) -> dict:
        return self.request({"op": "report"})

    def close(self) -> None:
        try:
            self._file.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "NetClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


@dataclass
class LoadReport:
    """Aggregated closed-loop load-generation outcome.

    ``latencies_ms`` covers only the measurement window (post-warmup)
    requests that were answered ``ok``; sheds and errors are counted but
    never hidden — ``sent == ok + shed + errors`` always holds.
    """

    sent: int = 0
    ok: int = 0
    shed: int = 0
    errors: int = 0
    elapsed_s: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)

    @property
    def achieved_qps(self) -> float:
        return self.sent / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def percentile(self, pct: float) -> float:
        """Latency percentile in milliseconds (NaN with no samples)."""
        if not self.latencies_ms:
            return float("nan")
        ordered = sorted(self.latencies_ms)
        rank = min(len(ordered) - 1,
                   max(0, int(round(pct / 100.0 * (len(ordered) - 1)))))
        return ordered[rank]

    def to_dict(self) -> dict:
        return {
            "sent": self.sent, "ok": self.ok, "shed": self.shed,
            "errors": self.errors, "elapsed_s": self.elapsed_s,
            "achieved_qps": self.achieved_qps,
            "samples": len(self.latencies_ms),
            "p50_ms": self.percentile(50.0),
            "p99_ms": self.percentile(99.0),
        }


def run_load(host: str, port: int, users: Sequence[int], *,
             connections: int = 4, target_qps: float = 200.0,
             total_requests: int = 400, warmup: int = 50, k: int = 10,
             seed: int = 0, timeout: float = 30.0) -> LoadReport:
    """Closed-loop load generation against a running :class:`NetServer`.

    ``connections`` persistent clients send ``total_requests`` recommend
    requests overall, paced to an aggregate ``target_qps`` (0 disables
    pacing).  The first ``warmup`` requests per run are excluded from the
    latency sample.  Every request terminates — answered, shed, or an
    explicit error — so the report's ``sent`` always reaches the target;
    a dropped connection reconnects once.
    """
    if connections < 1:
        raise ValueError("connections must be positive")
    rng = np.random.default_rng(seed)
    chosen = rng.choice(np.asarray(users, dtype=np.int64),
                        size=total_requests, replace=True)
    per_thread: list[list[int]] = [[] for _ in range(connections)]
    for ordinal, user in enumerate(chosen.tolist()):
        per_thread[ordinal % connections].append(ordinal)
    interval = connections / target_qps if target_qps > 0 else 0.0
    counter_lock = threading.Lock()
    report = LoadReport()

    def drive(thread_id: int) -> None:
        ordinals = per_thread[thread_id]
        if not ordinals:
            return
        client = NetClient(host, port, timeout=timeout)
        reconnected = False
        start = time.monotonic()
        try:
            for position, ordinal in enumerate(ordinals):
                if interval:
                    due = start + position * interval
                    delay = due - time.monotonic()
                    if delay > 0:
                        time.sleep(delay)
                user = int(chosen[ordinal])
                sent_at = time.monotonic()
                try:
                    response = client.request(
                        {"op": "recommend", "user": user, "k": k})
                except (ConnectionError, OSError):
                    response = None
                    if not reconnected:
                        reconnected = True
                        try:
                            client.close()
                            client = NetClient(host, port, timeout=timeout)
                        except ConnectionError:
                            pass
                latency_ms = (time.monotonic() - sent_at) * 1e3
                with counter_lock:
                    report.sent += 1
                    if response is None:
                        report.errors += 1
                    elif response.get("ok"):
                        report.ok += 1
                        if ordinal >= warmup:
                            report.latencies_ms.append(latency_ms)
                    elif response.get("shed"):
                        report.shed += 1
                    else:
                        report.errors += 1
        finally:
            client.close()

    started = time.monotonic()
    threads = [threading.Thread(target=drive, args=(i,), daemon=True,
                                name=f"repro-loadgen-{i}")
               for i in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    report.elapsed_s = time.monotonic() - started
    return report
