"""P10 — the retrieval sweep: exact against IVF, by catalog size.

The serving tier keeps an approximate backend only while it sits on the
recall@10/p99 frontier at some measured catalog size.  This benchmark is
that measurement.  For each catalog size it times one search per user
(after an untimed warm-up pass, over ``ROUNDS`` passes) against the exact
backend and against IVF — first with the auto-calibrated ``nprobe``, then
at each probe depth of ``NPROBES`` — and records recall@k against exact,
p50/p99 search latency, resident bytes and build time.

The catalogs are the exported item table tiled to size with per-copy
Gaussian noise (the corpus itself has a few hundred items, where every
backend is fast).  Asserts the reason IVF stays: at ``GATE_CATALOG`` items
some probe depth reaches recall@k >= ``MIN_RECALL`` at a p99 no more than
``MAX_P99_RATIO`` times exact's.

Writes ``benchmarks/results/BENCH_P10.json``.

Runnable both ways:
    pytest -m perf benchmarks/bench_p10_retrieval.py
    python benchmarks/bench_p10_retrieval.py

Environment knobs:
    REPRO_PERF_SCALE   dataset scale factor (default 0.4)
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from common import RESULTS_DIR

from repro.data.batching import collate
from repro.experiments import ExperimentContext, build_model
from repro.obs import host_info
from repro.serve import (ExactIndex, HistoryStore, IVFIndex, build_encoder,
                         export_artifact, load_artifact, topk_overlap)

PERF_SCALE = float(os.environ.get("REPRO_PERF_SCALE", "0.4"))
PERF_DIM = 32
TOP_K = 10
CATALOGS = (8_000, 100_000)
NPROBES = (2, 4, 8, 16, 32)
GATE_CATALOG = 100_000
MIN_RECALL = 0.95
MAX_P99_RATIO = 0.5
ROUNDS = 3

pytestmark = pytest.mark.perf


def _queries():
    """Every user's interests and seen items from an exported artifact
    (untrained: index structure and scan cost do not depend on the
    weights), plus the exported item vectors."""
    context = ExperimentContext.build("taobao", scale=PERF_SCALE, seed=1)
    model = build_model("MISSL", context, dim=PERF_DIM, seed=1)
    with tempfile.TemporaryDirectory(prefix="repro-bench-p10-") as root:
        artifact = load_artifact(
            export_artifact(model, Path(root) / "artifact.npz"))
    history = HistoryStore.from_dataset(context.dataset)
    encoder = build_encoder(artifact)
    users = history.users
    batch = collate([history.example(user) for user in users], history.schema)
    return (encoder.interests(batch), [history.seen(user) for user in users],
            artifact.item_vectors(),
            {"score_mode": encoder.score_mode, "score_pow": encoder.score_pow})


def _catalog(vectors: np.ndarray, size: int) -> np.ndarray:
    """``vectors`` tiled to ``size`` rows plus seeded per-copy noise at half
    the table's scale; recall is always measured on the same catalog."""
    reps = -(-size // vectors.shape[0])
    tiled = np.tile(vectors, (reps, 1))[:size]
    rng = np.random.default_rng(7)
    noise = rng.normal(scale=float(vectors.std()) * 0.5, size=tiled.shape)
    return (tiled + noise).astype(np.float32)


def _time_searches(index, interests, excludes, references) -> dict:
    """One untimed pass (recall against ``references``, and warm-up), then
    ``ROUNDS`` timed passes of one search per user."""
    results = [index.search(interests[row], TOP_K, exclude=exclude)
               for row, exclude in enumerate(excludes)]
    recalls = [topk_overlap(result.items, reference.items)
               for result, reference in zip(results, references)]
    latencies = []
    for _ in range(ROUNDS):
        for row, exclude in enumerate(excludes):
            started = time.perf_counter()
            index.search(interests[row], TOP_K, exclude=exclude)
            latencies.append(time.perf_counter() - started)
    return {
        "recall_at_k": float(np.mean(recalls)),
        "p50_ms": float(np.percentile(latencies, 50.0) * 1e3),
        "p99_ms": float(np.percentile(latencies, 99.0) * 1e3),
        "mean_candidates_scored": float(np.mean(
            [result.candidates_scored for result in results])),
    }


def _sweep(vectors, interests, excludes, readout) -> dict:
    started = time.perf_counter()
    exact = ExactIndex(vectors, **readout)
    build = time.perf_counter() - started
    references = [exact.search(interests[row], TOP_K, exclude=exclude)
                  for row, exclude in enumerate(excludes)]
    variants = {"exact": {
        **_time_searches(exact, interests, excludes, references),
        "resident_bytes": exact.resident_bytes(), "build_seconds": build}}
    for nprobe in (None,) + NPROBES:
        started = time.perf_counter()
        ivf = IVFIndex(vectors, nprobe=nprobe, seed=1, **readout)
        build = time.perf_counter() - started
        name = "ivf_auto" if nprobe is None else f"ivf_nprobe{nprobe}"
        variants[name] = {
            **_time_searches(ivf, interests, excludes, references),
            "nprobe": ivf.nprobe, "nlist": ivf.nlist,
            "resident_bytes": ivf.resident_bytes(), "build_seconds": build}
    return {"table_bytes": int(vectors.nbytes), "variants": variants}


def _gate(catalog: dict) -> dict:
    """The fastest IVF depth reaching ``MIN_RECALL``, against exact's p99."""
    variants = catalog["variants"]
    exact_p99 = variants["exact"]["p99_ms"]
    qualifying = {name: row for name, row in variants.items()
                  if name != "exact" and row["recall_at_k"] >= MIN_RECALL}
    if not qualifying:
        return {"exact_p99_ms": exact_p99, "best": None, "p99_ratio": None}
    best = min(qualifying, key=lambda name: qualifying[name]["p99_ms"])
    return {"exact_p99_ms": exact_p99, "best": best,
            "recall_at_k": qualifying[best]["recall_at_k"],
            "p99_ms": qualifying[best]["p99_ms"],
            "p99_ratio": qualifying[best]["p99_ms"] / exact_p99}


def run_bench() -> dict:
    interests, excludes, vectors, readout = _queries()
    catalogs = {str(size): _sweep(_catalog(vectors, size), interests,
                                  excludes, readout)
                for size in CATALOGS}
    payload = {
        "benchmark": "P10",
        "host": host_info(),
        "config": {"preset": "taobao", "scale": PERF_SCALE, "dim": PERF_DIM,
                   "k": TOP_K, "users": len(excludes),
                   "catalogs": list(CATALOGS), "nprobes": list(NPROBES),
                   "gate_catalog": GATE_CATALOG, "min_recall": MIN_RECALL,
                   "max_p99_ratio": MAX_P99_RATIO},
        "catalogs": catalogs,
        "gate": _gate(catalogs[str(GATE_CATALOG)]),
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out_path = RESULTS_DIR / "BENCH_P10.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print()
    for size, catalog in catalogs.items():
        for name, row in catalog["variants"].items():
            print(f"  {size:>7s} {name:13s} recall@{TOP_K}="
                  f"{row['recall_at_k']:.3f}  p50={row['p50_ms']:6.2f}ms "
                  f"p99={row['p99_ms']:6.2f}ms  "
                  f"resident={row['resident_bytes']:>9d}B  "
                  f"build={row['build_seconds']:.2f}s")
    gate = payload["gate"]
    if gate["best"] is not None:
        print(f"  gate @{GATE_CATALOG}: {gate['best']} recall "
              f"{gate['recall_at_k']:.3f} at {gate['p99_ratio']:.2f}x "
              f"exact p99")
    print(f"  written to {out_path}")
    return payload


def _check(payload: dict) -> None:
    gate = payload["gate"]
    assert gate["best"] is not None, (
        f"no IVF probe depth reached recall@{TOP_K} >= {MIN_RECALL} at "
        f"{GATE_CATALOG} items")
    assert gate["p99_ratio"] <= MAX_P99_RATIO, (
        f"{gate['best']} p99 {gate['p99_ms']:.2f}ms is "
        f"{gate['p99_ratio']:.2f}x exact's {gate['exact_p99_ms']:.2f}ms "
        f"(bound {MAX_P99_RATIO}x)")


def test_p10_retrieval():
    payload = run_bench()
    assert (RESULTS_DIR / "BENCH_P10.json").exists()
    _check(payload)


if __name__ == "__main__":
    _check(run_bench())
