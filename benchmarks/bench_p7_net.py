"""P7 — network serving: the recall-vs-latency Pareto of the indexes.

Drives a real :class:`~repro.serve.net.NetServer` with the closed-loop load
generator.  For each retrieval variant (exact, IVF at two probe widths,
HNSW at three ``ef_search`` settings) the benchmark measures recall@k
against the exact index *and* served p50/p99 latency through a real TCP
socket.  The interesting claim: some HNSW operating point dominates the
default IVF configuration — equal-or-better recall while scoring fewer
candidates.

Writes ``benchmarks/results/BENCH_P7.json``.

Runnable both ways:
    pytest -m perf benchmarks/bench_p7_net.py
    python benchmarks/bench_p7_net.py

Environment knobs:
    REPRO_PERF_SCALE             dataset scale factor (default 0.4)
    REPRO_PERF_NET_REQUESTS      load-gen requests per variant (default 240)
    REPRO_PERF_NET_CONNECTIONS   persistent client connections (default 4)
    REPRO_PERF_NET_MIN_RECALL    recall floor for the dominant HNSW point
                                 (default 0.9; set 0 to skip the Pareto
                                 assertion at degenerate scales)
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from common import RESULTS_DIR

from repro.data.batching import collate
from repro.experiments import ExperimentContext, build_model
from repro.obs import host_info
from repro.serve import (ExactIndex, HistoryStore, LocalBackend, NetServer,
                         RecommenderService, build_encoder, build_index,
                         export_artifact, load_artifact, run_load,
                         topk_overlap)

PERF_SCALE = float(os.environ.get("REPRO_PERF_SCALE", "0.4"))
NET_REQUESTS = int(os.environ.get("REPRO_PERF_NET_REQUESTS", "240"))
NET_CONNECTIONS = int(os.environ.get("REPRO_PERF_NET_CONNECTIONS", "4"))
NET_MIN_RECALL = float(os.environ.get("REPRO_PERF_NET_MIN_RECALL", "0.9"))
PERF_DIM = 32
TOP_K = 10
WARMUP = 24

pytestmark = pytest.mark.perf


def _exported_artifact():
    """A frozen artifact plus its corpus (untrained weights — the request
    path and index structure do not depend on training)."""
    context = ExperimentContext.build("taobao", scale=PERF_SCALE, seed=1)
    model = build_model("MISSL", context, dim=PERF_DIM, seed=1)
    path = Path(tempfile.mkdtemp(prefix="repro-bench-p7-")) / "artifact.npz"
    export_artifact(model, path)
    return load_artifact(path), context.dataset


def _index_variants(num_items: int) -> list[tuple[str, str, dict]]:
    nlist = max(1, int(round(np.sqrt(num_items))))
    return [
        ("exact", "exact", {}),
        ("ivf_default", "ivf", {"nlist": nlist, "seed": 1}),
        ("ivf_wide", "ivf",
         {"nlist": nlist, "nprobe": max(1, nlist // 2), "seed": 1}),
        ("hnsw_ef16", "hnsw", {"ef_search": 16, "seed": 1}),
        ("hnsw_ef48", "hnsw", {"ef_search": 48, "seed": 1}),
        ("hnsw_ef128", "hnsw", {"ef_search": 128, "seed": 1}),
    ]


def _measure_recall(artifact, history, backend: str, options: dict) -> dict:
    """Mean recall@k vs exact (and candidates scored) over every user."""
    encoder = build_encoder(artifact)
    users = history.users
    batch = collate([history.example(user) for user in users], history.schema)
    interests = encoder.interests(batch)
    vectors = artifact.item_vectors()
    exact = ExactIndex(vectors, score_mode=encoder.score_mode,
                       score_pow=encoder.score_pow)
    index = build_index(vectors, backend, score_mode=encoder.score_mode,
                        score_pow=encoder.score_pow, **options)
    recalls, scored = [], []
    for row, user in enumerate(users):
        exclude = history.seen(user)
        reference = exact.search(interests[row], TOP_K, exclude=exclude)
        approx = index.search(interests[row], TOP_K, exclude=exclude)
        recalls.append(topk_overlap(approx.items, reference.items))
        scored.append(approx.candidates_scored)
    return {
        "recall_at_k": float(np.mean(recalls)),
        "mean_candidates_scored": float(np.mean(scored)),
        "catalog_size": len(vectors),
    }


def _serve_load(artifact, dataset, *, service_options: dict) -> dict:
    """Served QPS and latency through a real socket for one configuration."""
    backend = LocalBackend(RecommenderService(
        artifact, HistoryStore.from_dataset(dataset), **service_options))
    server = NetServer(backend, max_inflight=64, default_k=TOP_K)
    try:
        host, port = server.start_background()
        report = run_load(host, port, HistoryStore.from_dataset(dataset).users,
                          connections=NET_CONNECTIONS, target_qps=0.0,
                          total_requests=NET_REQUESTS, warmup=WARMUP,
                          k=TOP_K, seed=1)
        return report.to_dict()
    finally:
        server.stop()
        backend.close()


def run_bench() -> dict:
    """Measure the index Pareto; write BENCH_P7.json."""
    artifact, dataset = _exported_artifact()
    history = HistoryStore.from_dataset(dataset)
    pareto = {}
    for name, backend, options in _index_variants(artifact.num_items):
        quality = (_measure_recall(artifact, history, backend, options)
                   if backend != "exact" else
                   {"recall_at_k": 1.0,
                    "mean_candidates_scored": float(artifact.num_items),
                    "catalog_size": artifact.num_items})
        served = _serve_load(artifact, dataset,
                             service_options={"index_backend": backend,
                                              "index_options": options})
        pareto[name] = {"index_backend": backend, "options": options,
                        **quality, **served}
    payload = {
        "benchmark": "P7",
        "host": host_info(),
        "config": {"preset": "taobao", "scale": PERF_SCALE, "dim": PERF_DIM,
                   "k": TOP_K, "requests": NET_REQUESTS,
                   "connections": NET_CONNECTIONS,
                   "min_recall": NET_MIN_RECALL},
        "pareto": pareto,
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out_path = RESULTS_DIR / "BENCH_P7.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print()
    for name, row in pareto.items():
        print(f"  {name:12s} recall@{TOP_K}={row['recall_at_k']:.3f} "
              f"candidates={row['mean_candidates_scored']:6.0f}"
              f"/{row['catalog_size']}  qps={row['achieved_qps']:7.1f} "
              f"p50={row['p50_ms']:6.2f}ms p99={row['p99_ms']:6.2f}ms")
    print(f"  written to {out_path}")
    return payload


def _check(payload: dict) -> None:
    pareto = payload["pareto"]
    for name, row in pareto.items():
        assert row["sent"] == NET_REQUESTS, name
        assert row["ok"] == NET_REQUESTS, (
            f"{name}: {row['errors']} errors / {row['shed']} sheds under "
            "an in-bounds closed loop")
    assert pareto["exact"]["recall_at_k"] == 1.0
    for name in ("ivf_default", "hnsw_ef16", "hnsw_ef48", "hnsw_ef128"):
        assert pareto[name]["mean_candidates_scored"] < \
            pareto[name]["catalog_size"], f"{name} should prune candidates"
    if NET_MIN_RECALL > 0:
        ivf = pareto["ivf_default"]
        dominant = [
            name for name in ("hnsw_ef16", "hnsw_ef48", "hnsw_ef128")
            if pareto[name]["recall_at_k"] >= max(NET_MIN_RECALL,
                                                  ivf["recall_at_k"])
            and pareto[name]["mean_candidates_scored"] <=
            ivf["mean_candidates_scored"]
        ]
        assert dominant, (
            "no HNSW point dominates ivf_default: "
            + ", ".join(f"{name}: recall={pareto[name]['recall_at_k']:.3f} "
                        f"cand={pareto[name]['mean_candidates_scored']:.0f}"
                        for name in pareto))


def test_p7_net():
    payload = run_bench()
    assert (RESULTS_DIR / "BENCH_P7.json").exists()
    _check(payload)


if __name__ == "__main__":
    _check(run_bench())
