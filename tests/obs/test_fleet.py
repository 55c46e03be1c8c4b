"""Snapshot merge: exact counter sums, bucket-wise histogram merges, and
the one-file event collection."""

import json

import numpy as np
import pytest

from repro.obs import collect_fleet, merge_snapshots
from repro.obs.fleet import merge_registry_snapshot
from repro.obs.metrics import Histogram, MetricsRegistry


def registry_with(counters=(), gauges=(), samples=()):
    registry = MetricsRegistry()
    for name, value in counters:
        registry.counter(name).inc(value)
    for name, value in gauges:
        registry.gauge(name).set(value)
    for name, values in samples:
        histogram = registry.histogram(name)
        for value in values:
            histogram.record(value)
    return registry


class TestMergeSnapshots:
    def test_counters_sum_across_processes(self):
        parts = [registry_with(counters=[("serve.requests", 3)]),
                 registry_with(counters=[("serve.requests", 5),
                                         ("serve.shed", 1)]),
                 registry_with(counters=[("serve.requests", 2)])]
        merged = merge_snapshots(p.snapshot() for p in parts)
        assert merged.counter("serve.requests").value == 10
        assert merged.counter("serve.shed").value == 1

    def test_histograms_merge_bucket_wise_exactly(self):
        rng = np.random.default_rng(0)
        batches = [rng.uniform(1e-5, 1.0, size=40) for _ in range(3)]
        parts = [registry_with(samples=[("net.request.seconds", batch)])
                 for batch in batches]
        merged = merge_snapshots(p.snapshot() for p in parts)

        reference = Histogram("net.request.seconds")
        for batch in batches:
            for value in batch:
                reference.record(value)
        got = merged.get("net.request.seconds").state()
        want = reference.state()
        assert got["counts"] == want["counts"]
        assert got["count"] == want["count"] == 120
        assert got["max"] == want["max"]
        assert got["total"] == pytest.approx(want["total"])
        # element-wise sum of the per-process buckets, not an approximation
        summed = np.sum([p.get("net.request.seconds").state()["counts"]
                         for p in parts], axis=0)
        assert list(summed) == got["counts"]

    def test_gauges_keep_last_writer_in_source_order(self):
        parts = [registry_with(gauges=[("train.loss.total", 0.9)]),
                 registry_with(gauges=[("train.loss.total", 0.4)])]
        merged = merge_snapshots(p.snapshot() for p in parts)
        assert merged.gauge("train.loss.total").value == 0.4

    def test_incompatible_histogram_bounds_raise(self):
        registry = MetricsRegistry()
        registry.histogram("h", bounds=np.array([1.0, 2.0]))
        other = MetricsRegistry()
        other.histogram("h", bounds=np.array([1.0, 2.0, 4.0])).record(1.5)
        with pytest.raises(ValueError, match="incompatible"):
            merge_registry_snapshot(registry, other.snapshot())

    def test_stateless_histogram_snapshots_are_skipped(self):
        snapshot = {"histograms": {"h": {"count": 4, "mean": 1.0}}}
        merged = merge_snapshots([snapshot])
        assert merged.get("h") is None


class TestCollectFleet:
    def write_events(self, path, events):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for event in events:
                if isinstance(event, str):
                    handle.write(event + "\n")
                else:
                    handle.write(json.dumps(event) + "\n")

    def metrics_event(self, registry):
        return {"type": "metrics", "ts": 0.0, "registry": registry.snapshot()}

    def test_only_last_metrics_event_per_file_merges(self, tmp_path):
        main = tmp_path / "run.jsonl"
        early = registry_with(counters=[("steps", 7)])
        late = registry_with(counters=[("steps", 9)])
        self.write_events(main, [self.metrics_event(early),
                                 self.metrics_event(late)])
        view = collect_fleet(main)
        # snapshots are cumulative: merging both would double-count
        assert view.registry.counter("steps").value == 9

    def test_malformed_lines_skipped_and_counted(self, tmp_path):
        main = tmp_path / "run.jsonl"
        self.write_events(main, [
            {"type": "span", "ts": 0.0, "name": "s", "span_id": 1,
             "parent_id": None, "trace_id": 1, "start": 0.0, "seconds": 0.1},
            '{"type": "span", "truncated',
            "[1, 2, 3]",
        ])
        view = collect_fleet(main)
        assert len(view.spans) == 1
        assert view.malformed_lines == 2
        assert view.registry.counter("fleet.malformed_lines").value == 2
