"""Micro-batching request engine.

Single-request model inference wastes the substrate's batch parallelism: a
``(1, L)`` transformer forward costs nearly as much as a ``(16, L)`` one.
:class:`MicroBatcher` sits between callers and the encoder: concurrent
``submit`` calls enqueue, and a worker thread takes whatever is queued (up
to ``max_batch`` requests) as soon as it is free.  The batcher is
work-conserving: a lone request is processed at once, never held back for
company, and batches form under load because requests queue while the
previous batch runs.  Callers block until their result is ready, so the
surface stays synchronous.

The clock is injectable; an ``on_flush`` hook reports batch sizes and
per-request queue delays (wired to serving metrics).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Sequence

__all__ = ["MicroBatcher"]


class _Pending:
    __slots__ = ("payload", "done", "result", "error", "enqueued_at")

    def __init__(self, payload, enqueued_at: float):
        self.payload = payload
        self.done = threading.Event()
        self.result = None
        self.error: BaseException | None = None
        self.enqueued_at = enqueued_at


class MicroBatcher:
    """Collects concurrent requests and processes them in micro-batches.

    Args:
        process: ``process(payloads) -> results`` called on the worker thread
            with 1..max_batch payloads; must return one result per payload.
        max_batch: the most payloads one ``process`` call receives.
        clock: monotonic time source for the reported queue delays
            (injectable for tests).
        on_flush: optional ``on_flush(batch_size, queue_delays)`` observer.
    """

    def __init__(self, process: Callable[[Sequence], Sequence],
                 max_batch: int = 32,
                 clock: Callable[[], float] = time.monotonic,
                 on_flush: Callable[[int, list[float]], None] | None = None):
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        self._process = process
        self.max_batch = max_batch
        self._clock = clock
        self._on_flush = on_flush
        self._queue: list[_Pending] = []
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._closed = False
        self._worker = threading.Thread(target=self._run, daemon=True,
                                        name="repro-serve-batcher")
        self._worker.start()

    # ------------------------------------------------------------------
    # caller side
    # ------------------------------------------------------------------
    def submit(self, payload, timeout: float | None = 30.0):
        """Enqueue one request and block until its batch is processed.

        Raises the processing exception if the batch failed, and
        ``TimeoutError`` if no flush happened within ``timeout`` seconds.
        """
        with self._wake:
            if self._closed:
                raise RuntimeError("batcher is closed")
            pending = _Pending(payload, self._clock())
            self._queue.append(pending)
            self._wake.notify_all()
        if not pending.done.wait(timeout):
            raise TimeoutError("micro-batch was not processed in time")
        if pending.error is not None:
            raise pending.error
        return pending.result

    def close(self) -> None:
        """Flush remaining requests and stop the worker thread."""
        with self._wake:
            if self._closed:
                return
            self._closed = True
            self._wake.notify_all()
        self._worker.join(timeout=10.0)

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def _take_batch(self) -> list[_Pending] | None:
        """Block until something is queued (or shutdown), then take up to
        ``max_batch`` of it; ``None`` once closed and drained."""
        with self._wake:
            while not self._queue:
                if self._closed:
                    return None
                self._wake.wait()
            batch = self._queue[:self.max_batch]
            del self._queue[:len(batch)]
            return batch

    def _run(self) -> None:
        while True:
            batch = self._take_batch()
            if batch is None:
                return
            started = self._clock()
            delays = [started - p.enqueued_at for p in batch]
            try:
                results = self._process([p.payload for p in batch])
                if len(results) != len(batch):
                    raise RuntimeError(
                        f"process returned {len(results)} results for "
                        f"{len(batch)} payloads")
                for pending, result in zip(batch, results):
                    pending.result = result
            except BaseException as error:  # noqa: BLE001 - forwarded to callers
                for pending in batch:
                    pending.error = error
            finally:
                for pending in batch:
                    pending.done.set()
            if self._on_flush is not None:
                try:
                    self._on_flush(len(batch), delays)
                except Exception:  # pragma: no cover - observer must not kill serving
                    pass
