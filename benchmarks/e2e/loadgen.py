"""Open-loop load generator over ``repro.serve.NetClient`` connections.

Every request of a rung gets a due time before the rung starts: ``rate``
arrivals per second, evenly spaced.  Each user is pinned to one connection
(``user % connections``), so one user's appends reach the server in the
order they were generated, and each connection thread sends its requests in
due order, one at a time, as the protocol requires.  Latency is timed from
the due time, not from the send: a stall delays every request due behind it
on that connection, and those requests report it.  How late the generator
itself sent a request is its *lag* (send time minus due time).

:func:`capacity_ladder` raises the rate rung by rung to find the highest rate
at which the server still kept up.

``repro.serve.run_load`` is closed-loop and times from the send, which
hides exactly those stalls; it is not used here.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.serve import NetClient

__all__ = ["Op", "Sample", "Rung", "OpenLoopGenerator", "capacity_ladder",
           "percentile"]

TOP_K = 10
APPEND_BEHAVIOR = "view"
# A rung passes when its p99 (from due time) is within this limit, at most
# this share of its requests failed, and nothing that came due went unsent.
RUNG_P99_LIMIT_MS = 50.0
RUNG_MAX_ERROR_SHARE = 0.001


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile (``inf`` when a value is ``inf``; NaN when
    empty)."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = min(len(ordered) - 1, max(0, round(pct / 100.0 * (len(ordered) - 1))))
    return ordered[rank]


@dataclass(frozen=True)
class Op:
    """One unit of load: a top-10 recommend for ``user``, preceded by an
    ``append(user, append_item, "view")`` when ``append_item`` is set."""

    user: int
    append_item: int | None = None


@dataclass
class Sample:
    """Outcome of one sent :class:`Op` (times are ``perf_counter`` seconds;
    ``recommend_sent`` is when the recommend itself went out, after any
    append)."""

    op: Op
    due: float
    sent: float
    recommend_sent: float
    done: float
    ok: bool
    error: str | None = None
    version: int | None = None


@dataclass
class Rung:
    """All samples of one rung, plus the ops that came due but were never
    sent before the rung ended."""

    rate: float
    seconds: float
    started: float
    samples: list[Sample] = field(default_factory=list)
    unsent: int = 0

    @property
    def attempted(self) -> int:
        return len(self.samples) + self.unsent

    @property
    def failed(self) -> int:
        return sum(1 for sample in self.samples if not sample.ok)

    def latencies_ms(self) -> list[float]:
        """Due-time latencies; failed and unsent ops count as ``inf`` so
        they miss any limit."""
        values = [(s.done - s.due) * 1e3 if s.ok else float("inf")
                  for s in self.samples]
        return values + [float("inf")] * self.unsent

    def lag_ms(self) -> list[float]:
        return [(s.sent - s.due) * 1e3 for s in self.samples]

    def served_per_second(self) -> float:
        """Requests answered ok per second, from the rung's start to its
        last answer."""
        done = [s.done for s in self.samples if s.ok]
        return len(done) / (max(done) - self.started) if done else 0.0

    def passed(self) -> bool:
        return (self.unsent == 0 and self.attempted > 0
                and self.failed <= RUNG_MAX_ERROR_SHARE * self.attempted
                and percentile(self.latencies_ms(), 99) <= RUNG_P99_LIMIT_MS)

    def report(self) -> dict:
        latencies = self.latencies_ms()
        lags = self.lag_ms()
        return {"rate": self.rate, "seconds": self.seconds,
                "attempted": self.attempted, "failed": self.failed,
                "unsent": self.unsent, "passed": self.passed(),
                "served_per_s": self.served_per_second(),
                "p50_ms": percentile(latencies, 50),
                "p90_ms": percentile(latencies, 90),
                "p99_ms": percentile(latencies, 99),
                "lag_p50_ms": percentile(lags, 50),
                "lag_p99_ms": percentile(lags, 99)}


class OpenLoopGenerator:
    """Drives one server over ``connections`` persistent connections, one
    thread per connection while a rung runs."""

    def __init__(self, host: str, port: int, connections: int = 2,
                 timeout: float = 10.0):
        if connections < 1:
            raise ValueError("connections must be positive")
        self.clients = [NetClient(host, port, timeout=timeout)
                        for _ in range(connections)]

    def close(self) -> None:
        for client in self.clients:
            client.close()

    def __enter__(self) -> "OpenLoopGenerator":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def _send(self, client: NetClient, op: Op) -> tuple[bool, str | None,
                                                         int | None, float]:
        version = None
        if op.append_item is not None:
            response = client.append(op.user, op.append_item,
                                     APPEND_BEHAVIOR)
            if not response.get("ok"):
                return False, str(response.get("error")), None, math.nan
            version = int(response["version"])
        recommend_sent = time.perf_counter()
        response = client.recommend(op.user, k=TOP_K)
        if not response.get("ok") or len(response.get("items", ())) != TOP_K:
            return (False, str(response.get("error", "short list")), version,
                    recommend_sent)
        return True, None, version, recommend_sent

    def run(self, ops: list[Op], seconds: float, rate: float,
            cut_off: bool = True) -> Rung:
        """Run one rung of ``seconds`` at ``rate`` ops per second.

        Op ``i`` is due ``i / rate`` after the start.  With ``cut_off``, ops
        that came due are still sent for up to the latency limit after the
        end (they can still meet it), and any not sent by then count as
        unsent.  Without it every op is sent, however late, and a stall
        shows only in the due-time latencies: a phase that measures latency
        at a fixed rate then fails no request because the host paused.
        """
        connections = len(self.clients)
        started = time.perf_counter() + 0.02
        send_until = (started + seconds + RUNG_P99_LIMIT_MS / 1e3 if cut_off
                      else math.inf)
        queues: list[list[tuple[Op, float]]] = [[] for _ in range(connections)]
        for index, op in enumerate(ops[:int(rate * seconds)]):
            queues[op.user % connections].append((op, started + index / rate))
        rung = Rung(rate=rate, seconds=seconds, started=started)
        lock = threading.Lock()

        def drive(client: NetClient, queue: list[tuple[Op, float]]) -> None:
            samples: list[Sample] = []
            unsent = 0
            for position, (op, due) in enumerate(queue):
                now = time.perf_counter()
                if due > now:
                    time.sleep(due - now)
                    now = time.perf_counter()
                if now >= send_until:
                    unsent = len(queue) - position
                    break
                try:
                    ok, error, version, recommend_sent = self._send(client, op)
                except (ConnectionError, OSError, ValueError) as exc:
                    samples.append(Sample(op, due, now, math.nan,
                                          time.perf_counter(), False,
                                          repr(exc)))
                    unsent = len(queue) - position - 1
                    break
                samples.append(Sample(op, due, now, recommend_sent,
                                      time.perf_counter(), ok, error,
                                      version))
            with lock:
                rung.samples.extend(samples)
                rung.unsent += unsent

        threads = [threading.Thread(target=drive, args=(client, queue),
                                    name=f"e2e-loadgen-{index}", daemon=True)
                   for index, (client, queue)
                   in enumerate(zip(self.clients, queues))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(seconds + 60.0)
            if thread.is_alive():
                raise RuntimeError("load generator thread did not finish")
        rung.samples.sort(key=lambda sample: sample.due)
        return rung


def capacity_ladder(generator: OpenLoopGenerator,
                    make_ops: Callable[[int], list[Op]], rung_seconds: float,
                    floor: float, start: float = 200.0, cap: float = 1600.0,
                    bisections: int = 4) -> tuple[Rung | None, list[Rung]]:
    """The rung with the highest rate that passed (None if none did), and
    every rung run to find it.

    The rate doubles from ``start`` until a rung fails (at most ``cap``),
    then bisects ``bisections`` times between the last rate that passed
    (``floor`` if none did) and the first that failed.  ``make_ops(count)``
    returns the ops of one rung.
    """
    rungs: list[Rung] = []
    best: Rung | None = None

    def attempt(rate: float) -> bool:
        nonlocal best
        rung = generator.run(make_ops(int(rate * rung_seconds)), rung_seconds,
                             rate=rate)
        rungs.append(rung)
        if rung.passed():
            best = rung
        return rung.passed()

    passed, failed = floor, None
    rate = start
    while rate <= cap:
        if not attempt(rate):
            failed = rate
            break
        passed = rate
        rate *= 2
    if failed is not None:
        for _ in range(bisections):
            middle = (passed + failed) / 2
            if attempt(middle):
                passed = middle
            else:
                failed = middle
    return best, rungs
