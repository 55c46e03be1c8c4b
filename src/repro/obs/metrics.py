"""Process-wide metrics: counters, gauges and log-bucketed histograms.

:class:`MetricsRegistry` is the shared, always-on metric store — cheap
enough to update unconditionally (one dict lookup + one add), with named
get-or-create accessors so independent subsystems can contribute to one
namespace (``train.*``, ``serve.*``, ``hypergraph.*``).  A process-wide
default registry is reachable via :func:`get_registry`; components that need
isolation (e.g. one :class:`~repro.serve.metrics.ServingMetrics` per
service) construct private registries of the same classes.

The histogram is the generalized form of the serving latency histogram:
geometric buckets, exact count/mean/max, percentile estimates with bounded
relative error.  Exports: :func:`MetricsRegistry.snapshot` (JSON) and
:func:`repro.obs.exporters.prometheus_text` (text exposition).
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "get_registry", "LATENCY_BOUNDS"]

LATENCY_BOUNDS = 1e-6 * np.power(2.0, np.arange(27))
"""Default geometric bucket bounds: factor 2 from 1 µs to ~67 s."""


class Counter:
    """Monotonically increasing count (requests, steps, cache hits...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount


class Gauge:
    """Last-write-wins instantaneous value (loss, learning rate, queue depth)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge."""
        self.value = float(value)

    def add(self, amount: float) -> None:
        """Shift the gauge by ``amount`` (may be negative)."""
        self.value += amount


class Histogram:
    """Log-bucketed accumulator with percentile estimates.

    A recorded value lands in the first bucket whose upper bound contains
    it.  Percentiles interpolate within the winning bucket, so they are
    estimates with bounded relative error (factor-``b`` buckets bound the
    error at ``b``×), while ``count`` / ``mean`` / ``max`` are exact.

    Args:
        name: registry name (free-form dotted path).
        bounds: ascending bucket upper bounds; defaults to
            :data:`LATENCY_BOUNDS` (seconds-scaled latency buckets).
    """

    __slots__ = ("name", "bounds", "_counts", "count", "total", "max")

    def __init__(self, name: str = "", bounds: np.ndarray | None = None):
        self.name = name
        self.bounds = LATENCY_BOUNDS if bounds is None else np.asarray(bounds, dtype=float)
        self._counts = np.zeros(len(self.bounds) + 1, dtype=np.int64)
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def record(self, value: float) -> None:
        """Add one observation."""
        bucket = int(np.searchsorted(self.bounds, value, side="left"))
        self._counts[bucket] += 1
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Exact mean of all observations (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Estimated ``p``-th percentile (0 when empty)."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if self.count == 0:
            return 0.0
        rank = p / 100.0 * self.count
        cumulative = np.cumsum(self._counts)
        bucket = int(np.searchsorted(cumulative, rank, side="left"))
        upper = self.bounds[bucket] if bucket < len(self.bounds) else self.max
        lower = self.bounds[bucket - 1] if bucket > 0 else 0.0
        previous = cumulative[bucket - 1] if bucket > 0 else 0
        in_bucket = self._counts[bucket]
        fraction = (rank - previous) / in_bucket if in_bucket else 1.0
        return min(lower + fraction * (upper - lower), self.max or upper)

    def percentile_upper(self, p: float) -> float:
        """Guaranteed upper bound on the ``p``-th percentile (0 when empty).

        Unlike :meth:`percentile` this never interpolates: it returns the
        upper bound of the bucket holding the rank (clamped to the exact
        ``max``), so factor-``b`` buckets bound the overstatement at ``b``×.
        Derived quantile exports use this form — an SLO read from it can be
        violated in the buckets but never silently exceeded by the data.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if self.count == 0:
            return 0.0
        rank = p / 100.0 * self.count
        cumulative = np.cumsum(self._counts)
        bucket = int(np.searchsorted(cumulative, rank, side="left"))
        upper = self.bounds[bucket] if bucket < len(self.bounds) else self.max
        return float(min(upper, self.max))

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, Prometheus-style.

        The final pair uses ``inf`` as the bound and equals ``count``.
        """
        cumulative = np.cumsum(self._counts)
        pairs = [(float(bound), int(total))
                 for bound, total in zip(self.bounds, cumulative)]
        pairs.append((float("inf"), int(cumulative[-1])))
        return pairs

    def state(self) -> dict:
        """Exact mergeable state: bounds, raw bucket counts and aggregates.

        Serializes losslessly through JSON, so a ``metrics`` event carries
        everything :meth:`merge_state` needs to rebuild or combine the
        histogram — bucket-wise, exactly.
        """
        return {
            "bounds": [float(bound) for bound in self.bounds],
            "counts": [int(count) for count in self._counts],
            "count": int(self.count),
            "total": float(self.total),
            "max": float(self.max),
        }

    def merge_state(self, state: dict) -> None:
        """Fold another histogram's :meth:`state` into this one.

        Bucket counts add element-wise and count/total/max combine exactly,
        so merging histograms is equivalent to recording every observation
        into one histogram.  Bounds must match.
        """
        bounds = np.asarray(state["bounds"], dtype=float)
        if bounds.shape != self.bounds.shape or not np.array_equal(bounds, self.bounds):
            raise ValueError(f"histogram {self.name!r}: cannot merge "
                             f"incompatible bucket bounds")
        counts = np.asarray(state["counts"], dtype=np.int64)
        self._counts += counts
        self.count += int(state["count"])
        self.total += float(state["total"])
        self.max = max(self.max, float(state["max"]))

    @classmethod
    def from_state(cls, name: str, state: dict) -> "Histogram":
        """Reconstruct a histogram from a serialized :meth:`state` dict."""
        histogram = cls(name, bounds=np.asarray(state["bounds"], dtype=float))
        histogram.merge_state(state)
        return histogram

    def snapshot(self) -> dict:
        """JSON-serializable summary (raw units) plus mergeable ``state``."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(50.0),
            "p90": self.percentile(90.0),
            "p99": self.percentile(99.0),
            "max": self.max,
            "state": self.state(),
        }


class MetricsRegistry:
    """Named get-or-create store of counters, gauges and histograms.

    Names are free-form dotted paths (``train.loss.main``).  Re-requesting a
    name returns the existing instrument; requesting it as a different kind
    raises ``TypeError``.  Creation is lock-protected so concurrent threads
    (e.g. the serving worker) can register safely; updates on the returned
    instruments are plain attribute arithmetic.
    """

    def __init__(self):
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, cls, *args, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = self._metrics[name] = cls(name, *args, **kwargs)
        if not isinstance(metric, cls):
            raise TypeError(f"metric {name!r} is a {type(metric).__name__}, "
                            f"not a {cls.__name__}")
        return metric

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge called ``name``."""
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str, bounds: np.ndarray | None = None,
                  cls: type = Histogram) -> Histogram:
        """Get or create the histogram called ``name``.

        ``cls`` may be a :class:`Histogram` subclass (the serving layer
        passes its latency-flavored subclass); ``bounds`` applies only at
        creation.
        """
        if not issubclass(cls, Histogram):
            raise TypeError(f"cls must subclass Histogram, got {cls!r}")
        return self._get_or_create(name, cls, bounds)

    def names(self) -> list[str]:
        """Sorted names of every registered instrument."""
        return sorted(self._metrics)

    def get(self, name: str):
        """The instrument called ``name``, or None."""
        return self._metrics.get(name)

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> dict:
        """JSON view: ``{"counters": {...}, "gauges": {...}, "histograms": {...}}``."""
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for name in self.names():
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                out["counters"][name] = metric.value
            elif isinstance(metric, Gauge):
                out["gauges"][name] = metric.value
            else:
                out["histograms"][name] = metric.snapshot()
        return out

    def reset(self) -> None:
        """Drop every instrument (used between runs / in tests)."""
        with self._lock:
            self._metrics.clear()


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY
