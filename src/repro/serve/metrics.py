"""Serving observability: latency histograms, throughput and cache counters.

Built on the shared :mod:`repro.obs.metrics` substrate — the per-stage
latency histograms are :class:`repro.obs.metrics.Histogram` instances and
every counter lives in a :class:`repro.obs.metrics.MetricsRegistry`, so a
serving process exposes one coherent namespace (``serve.*``) to the
telemetry exporters.  The surface stays the same as ever: cheap enough to
be always-on, with a ``report()`` table in the profiler's style covering
per-stage latency (queue / encode / retrieve / rank and end-to-end), QPS
since start, micro-batch occupancy, cache hit rate, and the approximate
index's measured recall against the exact backend.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.names import serve_latency_stage

__all__ = ["LatencyHistogram", "ServingMetrics", "STAGES"]

STAGES = ("queue", "encode", "retrieve", "rank", "total")


class LatencyHistogram(Histogram):
    """Log-bucketed latency accumulator with millisecond-facing snapshots.

    The bucketing, exact aggregates and percentile estimation come from
    :class:`repro.obs.metrics.Histogram` (geometric factor-2 buckets from
    1 µs to ~67 s); this subclass only fixes the human-facing unit to
    milliseconds.
    """

    def snapshot(self) -> dict:
        """Summary dict (milliseconds for human-facing fields)."""
        return {
            "count": self.count,
            "mean_ms": self.mean * 1e3,
            "p50_ms": self.percentile(50.0) * 1e3,
            "p90_ms": self.percentile(90.0) * 1e3,
            "p99_ms": self.percentile(99.0) * 1e3,
            "max_ms": self.max * 1e3,
            "state": self.state(),
        }


class ServingMetrics:
    """Aggregated counters for one :class:`~repro.serve.service.RecommenderService`.

    Args:
        clock: monotonic time source (injectable for tests).
        registry: metrics registry to register into.  Defaults to a private
            registry so concurrent services never share counters; pass
            :func:`repro.obs.get_registry` to publish into the process-wide
            namespace (the serving CLI does this when telemetry is on).
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic,
                 registry: MetricsRegistry | None = None):
        self._clock = clock
        self.started_at = clock()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.stages = {
            stage: self.registry.histogram(serve_latency_stage(stage),
                                           cls=LatencyHistogram)
            for stage in STAGES
        }
        self._requests = self.registry.counter("serve.requests")
        self._errors = self.registry.counter("serve.errors")
        self._batches = self.registry.counter("serve.batches")
        self._batched_requests = self.registry.counter("serve.batched_requests")
        self._max_batch_size = self.registry.gauge("serve.max_batch_size")
        self._cache_hits = self.registry.counter("serve.cache.hits")
        self._cache_misses = self.registry.counter("serve.cache.misses")
        self._cache_stampedes = self.registry.counter(
            "serve.cache.stampede_suppressed")
        self._recall_sum = self.registry.gauge("serve.recall.sum")
        self._recall_count = self.registry.counter("serve.recall.samples")
        self._index_candidates = self.registry.counter("serve.index.candidates")

    # ------------------------------------------------------------------
    # registry-backed views (kept as attributes of the historic API)
    # ------------------------------------------------------------------
    @property
    def requests(self) -> int:
        """Completed requests since construction."""
        return self._requests.value

    @property
    def errors(self) -> int:
        """Requests rejected or failed."""
        return self._errors.value

    @property
    def batches(self) -> int:
        """Micro-batch flushes."""
        return self._batches.value

    @property
    def batched_requests(self) -> int:
        """Requests that went through a micro-batch flush."""
        return self._batched_requests.value

    @property
    def max_batch_size(self) -> int:
        """Largest micro-batch seen."""
        return int(self._max_batch_size.value)

    @property
    def cache_hits(self) -> int:
        """Interest-cache hits."""
        return self._cache_hits.value

    @property
    def cache_misses(self) -> int:
        """Interest-cache misses."""
        return self._cache_misses.value

    @property
    def stampedes_suppressed(self) -> int:
        """Duplicate concurrent encodes avoided by single-flight claims."""
        return self._cache_stampedes.value

    @property
    def recall_sum(self) -> float:
        """Sum of sampled recall@k probes."""
        return self._recall_sum.value

    @property
    def recall_count(self) -> int:
        """Number of recall probes recorded."""
        return self._recall_count.value

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_stage(self, stage: str, seconds: float) -> None:
        """Add one latency observation to a stage histogram."""
        self.stages[stage].record(seconds)

    def record_request(self, total_seconds: float) -> None:
        """Count one completed request with its end-to-end latency."""
        self._requests.inc()
        self.stages["total"].record(total_seconds)

    def record_error(self) -> None:
        """Count one failed/rejected request."""
        self._errors.inc()

    def record_batch(self, size: int, queue_delays: list[float]) -> None:
        """Count one micro-batch flush and its per-request queue delays."""
        self._batches.inc()
        self._batched_requests.inc(size)
        if size > self._max_batch_size.value:
            self._max_batch_size.set(size)
        for delay in queue_delays:
            self.stages["queue"].record(delay)

    def record_cache(self, hit: bool) -> None:
        """Count one interest-cache lookup."""
        if hit:
            self._cache_hits.inc()
        else:
            self._cache_misses.inc()

    def record_stampede_suppressed(self, count: int = 1) -> None:
        """Count encodes deduplicated by the cache's single-flight claims."""
        if count:
            self._cache_stampedes.inc(count)

    def record_recall(self, recall: float) -> None:
        """Add one recall@k sample of the approximate index vs exact."""
        self._recall_sum.add(recall)
        self._recall_count.inc()

    def record_search(self, result) -> None:
        """Count one index query's scored candidates."""
        self._index_candidates.inc(int(result.candidates_scored))

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def elapsed(self) -> float:
        """Seconds since construction (floored away from zero)."""
        return max(self._clock() - self.started_at, 1e-9)

    def qps(self) -> float:
        """Completed requests per second since construction."""
        return self.requests / self.elapsed()

    def cache_hit_rate(self) -> float:
        """Fraction of interest-cache lookups that hit (0 when none)."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def mean_batch_size(self) -> float:
        """Average micro-batch occupancy (0 when no batch flushed)."""
        return self.batched_requests / self.batches if self.batches else 0.0

    def mean_recall(self) -> float:
        """Mean sampled recall@k (NaN when never probed)."""
        return self.recall_sum / self.recall_count if self.recall_count else float("nan")

    def snapshot(self) -> dict:
        """One JSON-serializable view of every counter and histogram."""
        return {
            "uptime_seconds": self.elapsed(),
            "requests": self.requests,
            "errors": self.errors,
            "qps": self.qps(),
            "batches": self.batches,
            "mean_batch_size": self.mean_batch_size(),
            "max_batch_size": self.max_batch_size,
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "hit_rate": self.cache_hit_rate(),
                "stampede_suppressed": self.stampedes_suppressed,
            },
            "recall": {
                "samples": self.recall_count,
                "mean": self.mean_recall() if self.recall_count else None,
            },
            "search": {
                "candidates_scored": self._index_candidates.value,
            },
            "stages": {stage: hist.snapshot()
                       for stage, hist in self.stages.items()},
        }

    def report(self) -> str:
        """Human-readable table in the :mod:`repro.perf` profiler style."""
        from repro.utils import format_table

        rows = []
        for stage in STAGES:
            hist = self.stages[stage]
            rows.append([
                stage, hist.count, f"{hist.mean * 1e3:.3f}",
                f"{hist.percentile(50.0) * 1e3:.3f}",
                f"{hist.percentile(99.0) * 1e3:.3f}",
                f"{hist.max * 1e3:.3f}",
            ])
        table = format_table(["stage", "count", "mean ms", "p50 ms",
                              "p99 ms", "max ms"], rows)
        recall = (f", recall@k {self.mean_recall():.3f} "
                  f"({self.recall_count} probes)") if self.recall_count else ""
        return (f"{table}\n"
                f"qps {self.qps():.1f} over {self.elapsed():.1f}s, "
                f"{self.requests} requests, {self.batches} batches "
                f"(mean size {self.mean_batch_size():.1f}), "
                f"cache hit-rate {self.cache_hit_rate():.2f}{recall}")
