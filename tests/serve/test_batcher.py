"""Micro-batcher tests: work-conserving flushes, exactly-once delivery,
error paths."""

import os
import sys
import threading
import time

import pytest

from repro.serve import MicroBatcher


def echo(payloads):
    return [payload * 2 for payload in payloads]


def wait_until(condition, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


class TestTriggers:
    """The one flush trigger: the worker is free and something is queued."""

    def test_lone_submit_returns_while_the_clock_stands_still(self):
        """No age trigger: a request is processed at once, even when the
        injected clock never advances (an age-triggered batcher waits for
        that clock forever)."""
        flushes = []
        with MicroBatcher(echo, max_batch=32, clock=lambda: 0.0,
                          on_flush=lambda size, delays: flushes.append(size)
                          ) as batcher:
            assert batcher.submit(21, timeout=5.0) == 42
        assert flushes == [1]

    def test_submitters_arriving_during_a_batch_share_the_next_one(self):
        """Requests queue while a batch runs and leave together in the next
        one, at most ``max_batch`` at a time."""
        started, release = threading.Event(), threading.Event()
        flushes = []

        def process(payloads):
            flushes.append(list(payloads))
            started.set()
            release.wait(10.0)
            return echo(payloads)

        results = {}
        with MicroBatcher(process, max_batch=4) as batcher:
            def call(value):
                results[value] = batcher.submit(value)

            first = threading.Thread(target=call, args=(0,))
            first.start()
            assert started.wait(10.0)
            threads = [threading.Thread(target=call, args=(value,))
                       for value in range(1, 7)]
            for thread in threads:
                thread.start()
            wait_until(lambda: len(batcher._queue) == 6)
            release.set()
            for thread in [first, *threads]:
                thread.join(timeout=10.0)
        assert [len(batch) for batch in flushes] == [1, 4, 2]
        assert sorted(value for batch in flushes for value in batch) == \
            list(range(7))
        assert results == {value: value * 2 for value in range(7)}

    def test_queue_delays_reported(self):
        seen = {}

        def observe(size, delays):
            seen["size"] = size
            seen["delays"] = delays

        with MicroBatcher(echo, max_batch=1, on_flush=observe) as batcher:
            batcher.submit(1)
        assert seen["size"] == 1
        assert len(seen["delays"]) == 1
        assert seen["delays"][0] >= 0.0


class TestExactlyOnce:
    def test_concurrent_submits_deliver_every_payload_exactly_once(self):
        """More submitter threads than cores, switching threads as often as
        the interpreter allows: every payload is processed exactly once —
        no duplicates, no drops."""
        flushed = []
        flush_lock = threading.Lock()

        def record(payloads):
            with flush_lock:
                flushed.extend(payloads)
            return [payload * 2 for payload in payloads]

        submitters = 4 * (os.cpu_count() or 1)
        submitted = []
        results = []
        result_lock = threading.Lock()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with MicroBatcher(record, max_batch=4) as batcher:

                def call(base):
                    for offset in range(25):
                        value = base * 1000 + offset
                        result = batcher.submit(value)
                        with result_lock:
                            submitted.append(value)
                            results.append((value, result))

                threads = [threading.Thread(target=call, args=(base,))
                           for base in range(submitters)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert len(submitted) == 25 * submitters
        assert sorted(flushed) == sorted(submitted)  # exactly-once multiset
        assert all(result == value * 2 for value, result in results)

    def test_close_drains_pending_submits(self):
        """Submits in flight when close() lands still get their results."""
        release = threading.Event()

        def slow(payloads):
            release.wait(10.0)
            return [payload * 2 for payload in payloads]

        batcher = MicroBatcher(slow, max_batch=10)
        results = {}

        def call(value):
            results[value] = batcher.submit(value)

        threads = [threading.Thread(target=call, args=(value,))
                   for value in range(3)]
        for thread in threads:
            thread.start()
        time.sleep(0.1)  # one submit is being processed, the rest queue

        def close_soon():
            time.sleep(0.05)
            release.set()

        threading.Thread(target=close_soon).start()
        batcher.close()  # must flush the queued submits, not drop them
        for thread in threads:
            thread.join(timeout=10.0)
        assert results == {0: 0, 1: 2, 2: 4}


class TestErrors:
    def test_processing_error_propagates_to_caller(self):
        def broken(payloads):
            raise RuntimeError("encoder on fire")

        with MicroBatcher(broken, max_batch=2) as batcher:
            with pytest.raises(RuntimeError, match="encoder on fire"):
                batcher.submit(1)

    def test_result_count_mismatch_detected(self):
        with MicroBatcher(lambda payloads: [], max_batch=1) as batcher:
            with pytest.raises(RuntimeError, match="results"):
                batcher.submit(1)

    def test_submit_after_close_raises(self):
        batcher = MicroBatcher(echo, max_batch=2)
        batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit(1)

    def test_close_is_idempotent(self):
        batcher = MicroBatcher(echo, max_batch=2)
        batcher.close()
        batcher.close()

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            MicroBatcher(echo, max_batch=0)
