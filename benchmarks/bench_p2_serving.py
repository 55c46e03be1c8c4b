"""P2 — online serving: micro-batched vs naive per-request, exact vs IVF.

Two questions about the serving subsystem, answered with numbers:

1. **Throughput** — concurrent clients hammer a
   :class:`~repro.serve.service.RecommenderService` twice: once with
   micro-batching disabled (``max_batch=1``: every request pays its own
   encoder forward) and once with it enabled.  Reports QPS plus p50/p99
   end-to-end latency for both, and asserts the micro-batched service wins
   on throughput whenever it actually forms batches (mean size >= 8).
2. **Recall** — the IVF index's top-k against the exact backend at the
   default probe width and with all partitions probed (which must be
   lossless).  Reports mean recall@k over served users.

Writes ``benchmarks/results/BENCH_P2.json``.

Runnable both ways:
    pytest -m perf benchmarks/bench_p2_serving.py
    python benchmarks/bench_p2_serving.py

Environment knobs:
    REPRO_PERF_SCALE               dataset scale factor (default 0.4)
    REPRO_PERF_SERVE_REQUESTS      requests per serving mode (default 192)
    REPRO_PERF_SERVE_CLIENTS       concurrent client threads (default 16)
    REPRO_PERF_SERVE_MIN_SPEEDUP   QPS speedup floor for the micro-batched
                                   mode (default 1.0; set 0 for smoke runs)
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from common import RESULTS_DIR

from repro.data.batching import collate
from repro.experiments import ExperimentContext, build_model
from repro.obs import host_info
from repro.serve import (ExactIndex, HistoryStore, IVFIndex,
                         RecommenderService, build_encoder, export_artifact,
                         load_artifact, topk_overlap)

PERF_SCALE = float(os.environ.get("REPRO_PERF_SCALE", "0.4"))
SERVE_REQUESTS = int(os.environ.get("REPRO_PERF_SERVE_REQUESTS", "192"))
SERVE_CLIENTS = int(os.environ.get("REPRO_PERF_SERVE_CLIENTS", "16"))
SERVE_MIN_SPEEDUP = float(os.environ.get("REPRO_PERF_SERVE_MIN_SPEEDUP", "1.0"))
PERF_DIM = 32
TOP_K = 10

pytestmark = pytest.mark.perf


def _exported_artifact():
    """A frozen artifact plus the corpus it was exported from.

    Weights are untrained — serving cost and index structure do not depend
    on training, and skipping it keeps the benchmark about the request path.
    """
    context = ExperimentContext.build("taobao", scale=PERF_SCALE, seed=1)
    model = build_model("MISSL", context, dim=PERF_DIM, seed=1)
    with tempfile.TemporaryDirectory(prefix="repro-bench-p2-") as root:
        artifact = load_artifact(
            export_artifact(model, Path(root) / "artifact.npz"))
    return artifact, context.dataset


def _drive(artifact, dataset, max_batch: int) -> dict:
    """QPS and latency percentiles for one service configuration.

    ``cache_capacity=1`` neutralizes the interest cache (users cycle, so no
    entry survives until its next use): every request pays a real encode and
    the comparison isolates micro-batching.
    """
    history = HistoryStore.from_dataset(dataset)
    users = history.users
    requests = [users[i % len(users)] for i in range(SERVE_REQUESTS)]
    with RecommenderService(artifact, history, index_backend="exact",
                            max_batch=max_batch,
                            cache_capacity=1) as service:
        started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=SERVE_CLIENTS) as pool:
            list(pool.map(lambda user: service.recommend(user, k=TOP_K),
                          requests))
        wall = time.perf_counter() - started
        total = service.metrics.stages["total"]
        return {
            "max_batch": max_batch,
            "requests": SERVE_REQUESTS,
            "clients": SERVE_CLIENTS,
            "wall_seconds": wall,
            "qps": SERVE_REQUESTS / wall,
            "p50_ms": total.percentile(50.0) * 1e3,
            "p99_ms": total.percentile(99.0) * 1e3,
            "mean_batch_size": service.metrics.mean_batch_size(),
        }


def _measure_recall(artifact, dataset) -> dict:
    """Mean recall@k of the IVF index vs exact over every user's interests."""
    history = HistoryStore.from_dataset(dataset)
    encoder = build_encoder(artifact)
    users = history.users
    batch = collate([history.example(user) for user in users], history.schema)
    interests = encoder.interests(batch)
    vectors = artifact.item_vectors()
    exact = ExactIndex(vectors, score_mode=encoder.score_mode,
                       score_pow=encoder.score_pow)
    nlist = max(1, int(round(np.sqrt(len(vectors)))))
    variants = {
        "ivf_default": IVFIndex(vectors, nlist=nlist, seed=1,
                                score_mode=encoder.score_mode,
                                score_pow=encoder.score_pow),
        "ivf_all_probes": IVFIndex(vectors, nlist=nlist, nprobe=nlist, seed=1,
                                   score_mode=encoder.score_mode,
                                   score_pow=encoder.score_pow),
    }
    report = {"k": TOP_K, "nlist": nlist, "users": len(users), "variants": {}}
    for name, index in variants.items():
        recalls, scored = [], []
        for row, user in enumerate(users):
            exclude = history.seen(user)
            reference = exact.search(interests[row], TOP_K, exclude=exclude)
            approx = index.search(interests[row], TOP_K, exclude=exclude)
            recalls.append(topk_overlap(approx.items, reference.items))
            scored.append(approx.candidates_scored)
        report["variants"][name] = {
            "nprobe": index.nprobe,
            "recall_at_k": float(np.mean(recalls)),
            "mean_candidates_scored": float(np.mean(scored)),
            "catalog_size": index.num_items,
        }
    return report


def run_bench() -> dict:
    """Measure both serving modes and the index recall; write BENCH_P2.json."""
    artifact, dataset = _exported_artifact()
    naive = _drive(artifact, dataset, max_batch=1)
    batched = _drive(artifact, dataset, max_batch=16)
    recall = _measure_recall(artifact, dataset)
    payload = {
        "benchmark": "P2",
        "host": host_info(),
        "config": {"preset": "taobao", "scale": PERF_SCALE, "dim": PERF_DIM,
                   "k": TOP_K, "requests": SERVE_REQUESTS,
                   "clients": SERVE_CLIENTS,
                   "min_speedup": SERVE_MIN_SPEEDUP},
        "serving": {
            "naive": naive,
            "micro_batched": batched,
            "qps_speedup": batched["qps"] / naive["qps"],
        },
        "recall": recall,
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out_path = RESULTS_DIR / "BENCH_P2.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print()
    for name, run in (("naive", naive), ("micro-batched", batched)):
        print(f"  {name:13s} qps={run['qps']:8.1f}  p50={run['p50_ms']:7.2f}ms "
              f"p99={run['p99_ms']:7.2f}ms  mean batch={run['mean_batch_size']:.1f}")
    print(f"  qps speedup {payload['serving']['qps_speedup']:.2f}x")
    for name, numbers in recall["variants"].items():
        print(f"  {name:14s} nprobe={numbers['nprobe']:3d} "
              f"recall@{TOP_K}={numbers['recall_at_k']:.3f} "
              f"candidates={numbers['mean_candidates_scored']:.0f}"
              f"/{numbers['catalog_size']}")
    print(f"  written to {out_path}")
    return payload


def _check(payload: dict) -> None:
    serving = payload["serving"]
    if serving["micro_batched"]["mean_batch_size"] >= 8:
        assert serving["qps_speedup"] >= SERVE_MIN_SPEEDUP, (
            f"micro-batched QPS speedup {serving['qps_speedup']:.2f}x below "
            f"the {SERVE_MIN_SPEEDUP:.2f}x floor despite batches forming")
    variants = payload["recall"]["variants"]
    assert variants["ivf_all_probes"]["recall_at_k"] == 1.0, \
        "probing every partition must be lossless"
    assert 0.0 <= variants["ivf_default"]["recall_at_k"] <= 1.0
    assert variants["ivf_default"]["mean_candidates_scored"] < \
        variants["ivf_default"]["catalog_size"]


def test_p2_serving():
    payload = run_bench()
    assert (RESULTS_DIR / "BENCH_P2.json").exists()
    _check(payload)


if __name__ == "__main__":
    _check(run_bench())
