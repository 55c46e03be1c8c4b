"""Exporters: Prometheus text exposition and per-run manifests.

Four machine-readable outputs leave the telemetry layer:

* **JSON-lines event logs** — produced by the sink itself
  (:mod:`repro.obs.events`), rendered by ``python -m repro obs``.
* **Prometheus exposition** — :func:`prometheus_text` renders any
  :class:`~repro.obs.metrics.MetricsRegistry` in the text format scrapers
  expect (counters, gauges, cumulative histogram buckets).
* **Run manifests** — :func:`write_run_manifest` captures what produced a
  checkpoint (config, seed, git SHA, final metrics, environment) as a JSON
  file next to the checkpoint, so every ``.npz`` on disk stays attributable
  months later.
* **Host records** — :func:`host_info` describes the machine a number was
  measured on (CPUs, NumPy/BLAS build, BLAS thread settings); run
  manifests and every perf bench JSON embed it.
"""

from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import time
from pathlib import Path

from .metrics import Counter, Gauge, MetricsRegistry

__all__ = ["prometheus_text", "write_run_manifest", "git_revision", "host_info"]

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")


def _prom_name(name: str) -> str:
    """Sanitize a dotted metric name into a Prometheus identifier."""
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not _NAME_OK.match(cleaned):
        cleaned = f"_{cleaned}"
    return cleaned


def _fmt(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    return repr(round(float(value), 9))


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render a registry in the Prometheus text exposition format.

    Counters and gauges become single samples; histograms expand into
    cumulative ``_bucket{le="..."}`` samples plus ``_sum`` and ``_count``,
    matching what a scraper expects from a native client, and additionally
    export derived ``_p50`` / ``_p90`` / ``_p99`` gauges — bucket
    upper-bound quantiles (:meth:`~repro.obs.metrics.Histogram.percentile_upper`)
    so latency SLOs are readable without recomputing from the buckets.
    """
    lines: list[str] = []
    for name in registry.names():
        metric = registry.get(name)
        prom = _prom_name(name)
        if isinstance(metric, Counter):
            lines.append(f"# TYPE {prom} counter")
            lines.append(f"{prom} {_fmt(metric.value)}")
        elif isinstance(metric, Gauge):
            lines.append(f"# TYPE {prom} gauge")
            lines.append(f"{prom} {_fmt(metric.value)}")
        else:
            lines.append(f"# TYPE {prom} histogram")
            for bound, count in metric.bucket_counts():
                lines.append(f'{prom}_bucket{{le="{_fmt(bound)}"}} {count}')
            lines.append(f"{prom}_sum {_fmt(metric.total)}")
            lines.append(f"{prom}_count {metric.count}")
            for percentile, label in ((50.0, "p50"), (90.0, "p90"),
                                      (99.0, "p99")):
                lines.append(f"# TYPE {prom}_{label} gauge")
                lines.append(f"{prom}_{label} "
                             f"{_fmt(metric.percentile_upper(percentile))}")
    return "\n".join(lines) + ("\n" if lines else "")


def git_revision() -> str | None:
    """The current repository's HEAD SHA, or None outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=5.0)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def host_info() -> dict:
    """The machine a measurement ran on: CPU count, affinity and model,
    Python and NumPy versions, the BLAS build NumPy links, and the BLAS
    thread-count environment variables (None where unset)."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get(
            "blas", {})
    except (TypeError, ValueError):  # NumPy without dict-mode show_config
        blas = {}
    affinity = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else os.cpu_count())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": affinity,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in
                 ("name", "version", "openblas configuration")},
        "threads": {name: os.environ.get(name) for name in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")},
    }


def write_run_manifest(path: str | Path, *, config: dict | None = None,
                       seed: int | None = None, metrics: dict | None = None,
                       extra: dict | None = None) -> Path:
    """Write one run's provenance manifest as pretty-printed JSON.

    Args:
        path: manifest destination (conventionally
            ``<checkpoint>.manifest.json`` next to the checkpoint).
        config: the run's configuration (e.g. ``dataclasses.asdict`` of a
            :class:`~repro.train.trainer.TrainConfig`).
        seed: the run's master seed.
        metrics: final metric values (best validation / test report).
        extra: any further JSON-serializable context.

    The manifest additionally records the git SHA (when available), the
    Python/NumPy versions, the platform, the :func:`host_info` record and a
    wall-clock timestamp.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    host = host_info()
    manifest = {
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "git_sha": git_revision(),
        "python": host["python"],
        "numpy": host["numpy"],
        "platform": platform.platform(),
        "host": host,
        "seed": seed,
        "config": config or {},
        "metrics": metrics or {},
        "extra": extra or {},
    }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True,
                               default=str) + "\n", encoding="utf-8")
    return path
