"""P10 — quantized, cache-resident retrieval: recall/latency/memory Pareto.

Three questions about the quantized serving tier, answered with numbers:

1. **Pareto** — for every index backend (exact, IVF, HNSW, int8 SQ, PQ,
   IVF+PQ; quantized ones with and without the exact refine step): mean
   recall@k vs the exact backend, p50/p99 search latency, and the bytes that
   must stay resident for the scan.  Asserts that at least one quantized
   variant achieves the table-memory reduction floor while holding the
   recall floor, at a p99 no worse than the ``hnsw_ef48`` reference.
2. **Page-cache sharing** — two concurrent replica processes load the same
   inflated artifact, once as legacy ``npz`` (private decompressed copies)
   and once as the mmap'd ``dir`` bundle (file-backed pages shared through
   the page cache), and report their private RSS from
   ``/proc/self/smaps_rollup``.  Asserts the per-replica private footprint
   of the bundle is measurably below the npz one.
3. **Cold spawn** — time to stand up a ``RecommenderService`` from a bundle
   that ships a serialized HNSW structure (O(mmap) attach) vs rebuilding the
   graph from scratch.  Asserts the attach-speedup floor.

Writes ``benchmarks/results/BENCH_P10.json``.

Runnable both ways:
    pytest -m perf benchmarks/bench_p10_quant.py
    python benchmarks/bench_p10_quant.py

Environment knobs:
    REPRO_PERF_SCALE                      dataset scale factor (default 0.4)
    REPRO_PERF_QUANT_MIN_REDUCTION        table-memory reduction floor a
                                          qualifying quantized variant must
                                          reach (default 4.0)
    REPRO_PERF_QUANT_MIN_RECALL           recall@k floor for the same
                                          variant (default 0.95)
    REPRO_PERF_QUANT_P99_SLACK            qualifying variants' best p99 must
                                          be <= hnsw_ef48 p99 * slack
                                          (default 1.0; <= 0 disables)
    REPRO_PERF_QUANT_MIN_SPAWN_SPEEDUP    serialized-attach vs rebuild
                                          speedup floor (default 5.0; set 0
                                          for smoke runs)
    REPRO_PERF_QUANT_RSS_MB               inflated item-table size for the
                                          RSS probe (default 24)
    REPRO_PERF_QUANT_CATALOG              synthetic catalog size for the
                                          Pareto sweep (default 8000; the
                                          tiny test corpus is codebook-
                                          overhead-dominated)
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from common import RESULTS_DIR

from repro.data.batching import collate
from repro.experiments import ExperimentContext, build_model
from repro.obs import host_info
from repro.serve import (ExactIndex, HistoryStore, HNSWIndex, IVFIndex,
                         IVFPQIndex, PQIndex, RecommenderService, SQIndex,
                         build_encoder, export_artifact, load_artifact,
                         topk_overlap, write_artifact)

PERF_SCALE = float(os.environ.get("REPRO_PERF_SCALE", "0.4"))
MIN_REDUCTION = float(os.environ.get("REPRO_PERF_QUANT_MIN_REDUCTION", "4.0"))
MIN_RECALL = float(os.environ.get("REPRO_PERF_QUANT_MIN_RECALL", "0.95"))
P99_SLACK = float(os.environ.get("REPRO_PERF_QUANT_P99_SLACK", "1.0"))
MIN_SPAWN_SPEEDUP = float(
    os.environ.get("REPRO_PERF_QUANT_MIN_SPAWN_SPEEDUP", "5.0"))
RSS_MB = float(os.environ.get("REPRO_PERF_QUANT_RSS_MB", "24"))
QUANT_CATALOG = int(os.environ.get("REPRO_PERF_QUANT_CATALOG", "8000"))
PERF_DIM = 32
TOP_K = 10

pytestmark = pytest.mark.perf


def _exported_artifact():
    """A frozen artifact plus the corpus it was exported from (untrained:
    index structure and scan cost do not depend on the weights)."""
    context = ExperimentContext.build("taobao", scale=PERF_SCALE, seed=1)
    model = build_model("MISSL", context, dim=PERF_DIM, seed=1)
    root = Path(tempfile.mkdtemp(prefix="repro-bench-p10-"))
    path = export_artifact(model, root / "artifact.npz")
    return load_artifact(path), context.dataset, root


# ---------------------------------------------------------------------------
# 1. recall / latency / resident-bytes Pareto
# ---------------------------------------------------------------------------
def _variants(vectors, score_mode, score_pow):
    common = {"score_mode": score_mode, "score_pow": score_pow}
    return {
        "exact": ExactIndex(vectors, **common),
        "ivf_auto": IVFIndex(vectors, seed=1, **common),
        "hnsw_ef48": HNSWIndex(vectors, M=16, ef_search=48, seed=1, **common),
        "exact_sq": SQIndex(vectors, **common),
        "exact_sq_r64": SQIndex(vectors, refine=64, **common),
        "pq_m4": PQIndex(vectors, m=4, seed=1, **common),
        "pq_m8_r128": PQIndex(vectors, m=8, refine=128, seed=1, **common),
        "ivf_pq_m8_r128": IVFPQIndex(vectors, m=8, refine=128, seed=1,
                                     **common),
    }


def _synthetic_catalog(vectors: np.ndarray) -> np.ndarray:
    """Grow the tiny test catalog to serving scale: tile + per-copy noise.

    The corpus the artifact was exported from has a few hundred items, where
    the PQ codebooks (a fixed ~32 KB at ``m=8, ksub=256``) dominate the code
    savings.  Quantization is a *large-catalog* lever, so the Pareto sweep
    runs over a deterministic synthetic catalog that keeps the real table's
    scale statistics; recall is always measured against the exact backend on
    the same catalog.
    """
    count = max(QUANT_CATALOG, vectors.shape[0])
    reps = -(-count // vectors.shape[0])
    tiled = np.tile(vectors, (reps, 1))[:count]
    rng = np.random.default_rng(7)
    noise = rng.normal(scale=float(vectors.std()) * 0.5, size=tiled.shape)
    return (tiled + noise).astype(np.float32)


def _measure_pareto(artifact, dataset) -> dict:
    history = HistoryStore.from_dataset(dataset)
    encoder = build_encoder(artifact)
    users = history.users
    batch = collate([history.example(user) for user in users], history.schema)
    interests = encoder.interests(batch)
    excludes = [history.seen(user) for user in users]
    vectors = _synthetic_catalog(artifact.item_vectors())
    table_bytes = vectors.nbytes
    variants = _variants(vectors, encoder.score_mode, encoder.score_pow)
    exact = variants["exact"]
    references = [exact.search(interests[row], TOP_K, exclude=excludes[row])
                  for row in range(len(users))]
    report = {"k": TOP_K, "users": len(users),
              "catalog_size": int(vectors.shape[0]), "dim": PERF_DIM,
              "table_bytes": int(table_bytes), "variants": {}}
    for name, index in variants.items():
        recalls, latencies, scored, refined = [], [], [], []
        for row in range(len(users)):
            started = time.perf_counter()
            result = index.search(interests[row], TOP_K,
                                  exclude=excludes[row])
            latencies.append(time.perf_counter() - started)
            recalls.append(topk_overlap(result.items, references[row].items))
            scored.append(result.candidates_scored)
            refined.append(result.refined)
        resident = int(index.resident_bytes())
        report["variants"][name] = {
            "backend": index.backend,
            "recall_at_k": float(np.mean(recalls)),
            "p50_ms": float(np.percentile(latencies, 50.0) * 1e3),
            "p99_ms": float(np.percentile(latencies, 99.0) * 1e3),
            "resident_bytes": resident,
            "table_reduction": float(table_bytes / resident),
            "mean_candidates_scored": float(np.mean(scored)),
            "mean_refined": float(np.mean(refined)),
        }
    return report


# ---------------------------------------------------------------------------
# 2. per-replica private RSS: npz copies vs mmap'd bundle
# ---------------------------------------------------------------------------
_RSS_CHILD = """\
import json, sys, time
import numpy as np
from repro.serve import load_artifact

artifact = load_artifact(sys.argv[1])
# Fault every page of every array in, exactly like a scanning replica.
touched = float(np.asarray(artifact.item_table, dtype=np.float32).sum())
touched += sum(float(np.asarray(v, dtype=np.float64).sum())
               for v in artifact.params.values())
time.sleep(float(sys.argv[2]))  # hold the mapping while the peer measures
private = 0
for line in open("/proc/self/smaps_rollup"):
    if line.startswith(("Private_Clean:", "Private_Dirty:")):
        private += int(line.split()[1])  # kB
print(json.dumps({"private_kb": private, "touched": touched}))
"""


def _inflated_artifact(artifact, root: Path):
    """Tile the item table up to ~RSS_MB so footprints dominate noise."""
    table = np.asarray(artifact.item_table, dtype=np.float32)
    reps = max(1, int(RSS_MB * 1e6 / max(1, table.nbytes)))
    big = np.tile(table, (reps, 1))
    inflated = replace(artifact, item_table=big,
                       num_items=int(big.shape[0]) - 1)
    npz_path = write_artifact(inflated, root / "inflated.npz")
    dir_path = write_artifact(inflated, root / "inflated.artifact",
                              artifact_format="dir")
    return npz_path, dir_path, int(big.nbytes)


def _replica_private_kb(path: Path, replicas: int = 2) -> list[int]:
    hold = 3.0
    procs = [subprocess.Popen([sys.executable, "-c", _RSS_CHILD, str(path),
                               str(hold)], stdout=subprocess.PIPE)
             for _ in range(replicas)]
    outputs = [proc.communicate(timeout=120)[0] for proc in procs]
    assert all(proc.returncode == 0 for proc in procs)
    return [json.loads(out)["private_kb"] for out in outputs]


def _measure_rss(artifact, root: Path) -> dict:
    npz_path, dir_path, table_bytes = _inflated_artifact(artifact, root)
    npz_private = _replica_private_kb(npz_path)
    dir_private = _replica_private_kb(dir_path)
    return {
        "replicas": 2,
        "inflated_table_bytes": table_bytes,
        "npz_private_kb": npz_private,
        "dir_private_kb": dir_private,
        "npz_mean_private_kb": float(np.mean(npz_private)),
        "dir_mean_private_kb": float(np.mean(dir_private)),
    }


# ---------------------------------------------------------------------------
# 3. cold spawn: serialized-index attach vs rebuild
# ---------------------------------------------------------------------------
def _measure_cold_spawn(artifact, dataset, root: Path) -> dict:
    bundle_path = write_artifact(
        artifact, root / "prebuilt.artifact", artifact_format="dir",
        prebuilt=("hnsw",), index_options={"hnsw": {"seed": 1}})
    bundle = load_artifact(bundle_path)
    history = HistoryStore.from_dataset(dataset)

    def spawn(use_prebuilt: bool) -> tuple[float, bool]:
        started = time.perf_counter()
        service = RecommenderService(bundle, history, index_backend="hnsw",
                                     index_options={"seed": 1} if
                                     not use_prebuilt else {},
                                     use_prebuilt=use_prebuilt)
        elapsed = time.perf_counter() - started
        attached = service.stats()["index"]["prebuilt"]
        service.close()
        return elapsed, attached

    rebuild_seconds, rebuilt_attached = spawn(use_prebuilt=False)
    attach_seconds, attached = min(
        (spawn(use_prebuilt=True) for _ in range(3)), key=lambda r: r[0])
    assert attached and not rebuilt_attached
    return {
        "backend": "hnsw",
        "rebuild_seconds": rebuild_seconds,
        "attach_seconds": attach_seconds,
        "spawn_speedup": rebuild_seconds / attach_seconds,
    }


def run_bench() -> dict:
    artifact, dataset, root = _exported_artifact()
    pareto = _measure_pareto(artifact, dataset)
    rss = _measure_rss(artifact, root)
    spawn = _measure_cold_spawn(artifact, dataset, root)
    payload = {
        "benchmark": "P10",
        "host": host_info(),
        "config": {"preset": "taobao", "scale": PERF_SCALE, "dim": PERF_DIM,
                   "k": TOP_K, "min_reduction": MIN_REDUCTION,
                   "min_recall": MIN_RECALL, "p99_slack": P99_SLACK,
                   "min_spawn_speedup": MIN_SPAWN_SPEEDUP},
        "pareto": pareto,
        "rss": rss,
        "cold_spawn": spawn,
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out_path = RESULTS_DIR / "BENCH_P10.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print()
    for name, row in pareto["variants"].items():
        print(f"  {name:14s} recall@{TOP_K}={row['recall_at_k']:.3f}  "
              f"p50={row['p50_ms']:6.2f}ms p99={row['p99_ms']:6.2f}ms  "
              f"resident={row['resident_bytes']:>9d}B "
              f"({row['table_reduction']:5.1f}x smaller)")
    print(f"  private RSS/replica: npz={rss['npz_mean_private_kb']:.0f}kB "
          f"dir={rss['dir_mean_private_kb']:.0f}kB")
    print(f"  cold spawn: rebuild={spawn['rebuild_seconds'] * 1e3:.1f}ms "
          f"attach={spawn['attach_seconds'] * 1e3:.1f}ms "
          f"({spawn['spawn_speedup']:.1f}x)")
    print(f"  written to {out_path}")
    return payload


def _check(payload: dict) -> None:
    variants = payload["pareto"]["variants"]
    quantized = {name: row for name, row in variants.items()
                 if row["backend"] in ("exact_sq", "pq", "ivf_pq")}
    qualifying = {name: row for name, row in quantized.items()
                  if row["table_reduction"] >= MIN_REDUCTION
                  and row["recall_at_k"] >= MIN_RECALL}
    observed = {name: (round(row["table_reduction"], 1),
                       round(row["recall_at_k"], 3))
                for name, row in quantized.items()}
    assert qualifying, (
        f"no quantized variant reached {MIN_REDUCTION:.1f}x reduction at "
        f"recall@{TOP_K} >= {MIN_RECALL}: {observed}")
    if P99_SLACK > 0:
        reference = variants["hnsw_ef48"]["p99_ms"]
        best = min(row["p99_ms"] for row in qualifying.values())
        assert best <= reference * P99_SLACK, (
            f"qualifying quantized p99 {best:.2f}ms worse than hnsw_ef48 "
            f"{reference:.2f}ms * {P99_SLACK}")
    rss = payload["rss"]
    assert rss["dir_mean_private_kb"] < rss["npz_mean_private_kb"], (
        f"mmap'd bundle private RSS {rss['dir_mean_private_kb']:.0f}kB not "
        f"below npz {rss['npz_mean_private_kb']:.0f}kB")
    if MIN_SPAWN_SPEEDUP > 0:
        speedup = payload["cold_spawn"]["spawn_speedup"]
        assert speedup >= MIN_SPAWN_SPEEDUP, (
            f"serialized-index attach only {speedup:.1f}x faster than "
            f"rebuild (floor {MIN_SPAWN_SPEEDUP:.1f}x)")


def test_p10_quant():
    payload = run_bench()
    assert (RESULTS_DIR / "BENCH_P10.json").exists()
    _check(payload)


if __name__ == "__main__":
    _check(run_bench())
