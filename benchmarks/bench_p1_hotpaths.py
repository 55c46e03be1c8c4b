"""P1 — hot-path kernel overhaul: fast paths vs the retained seed kernels.

Times three workloads on MISSL — a full optimizer training step, the
hypergraph-enhanced item-table forward, and a complete sampled-ranking
evaluation pass — once on the fast paths (scatter-free backward, fused ops,
alias-aware gradient accumulation, float32 propagation operator) and once
under :func:`repro.perf.reference_mode`, which restores the seed
implementations end to end (including the seed's float64 propagation
operator).  Writes ``benchmarks/results/BENCH_P1.json`` and asserts the
training step is at least ``REPRO_PERF_MIN_SPEEDUP`` (default 2.0) times
faster.

Runnable both ways:
    pytest -m perf benchmarks/bench_p1_hotpaths.py
    python benchmarks/bench_p1_hotpaths.py

Environment knobs (see also benchmarks/common.py):
    REPRO_PERF_SCALE        dataset scale factor (default 0.4)
    REPRO_PERF_STEPS        timed training steps / forwards (default 5)
    REPRO_PERF_MIN_SPEEDUP  training-step speedup floor (default 2.0;
                            set 0 for smoke runs at tiny scale)
"""

from __future__ import annotations

import contextlib
import json
import os
import time

import numpy as np
import pytest

from common import RESULTS_DIR

from repro.data.batching import BatchLoader
from repro.data.sampling import NegativeSampler
from repro.eval.evaluator import evaluate_ranking
from repro.eval.protocol import CandidateSets
from repro.experiments import ExperimentContext, build_model
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn.tensor import no_grad
from repro.obs import host_info
from repro.perf import reference_mode

PERF_SCALE = float(os.environ.get("REPRO_PERF_SCALE", "0.4"))
PERF_STEPS = int(os.environ.get("REPRO_PERF_STEPS", "5"))
PERF_MIN_SPEEDUP = float(os.environ.get("REPRO_PERF_MIN_SPEEDUP", "2.0"))
PERF_DIM = 32
PERF_BATCH = 128

pytestmark = pytest.mark.perf


def _measure_mode(reference: bool) -> dict[str, float]:
    """Seconds per workload with the fast paths or the seed reference paths.

    The model is constructed inside the mode so construction-time choices
    (the propagation operator's dtype, segment-plan caching) match the paths
    being measured.
    """
    mode = reference_mode() if reference else contextlib.nullcontext()
    with mode:
        context = ExperimentContext.build("taobao", scale=PERF_SCALE, seed=1)
        model = build_model("MISSL", context, dim=PERF_DIM, seed=1)
        dataset = context.dataset
        loader = BatchLoader(context.split.train, dataset.schema, PERF_BATCH,
                             rng=np.random.default_rng(2))
        sampler = NegativeSampler(dataset, np.random.default_rng(3))
        optimizer = Adam(model.parameters(), lr=1e-3)
        batches = list(loader)

        def step(batch) -> None:
            optimizer.zero_grad()
            loss = model.training_loss(batch, sampler)
            loss.backward()
            clip_grad_norm(model.parameters(), 5.0)
            optimizer.step()

        # Training step (warm twice: first step pays one-time caches).
        step(batches[0])
        step(batches[1 % len(batches)])
        started = time.perf_counter()
        for index in range(PERF_STEPS):
            step(batches[index % len(batches)])
        train_step = (time.perf_counter() - started) / PERF_STEPS

        # Hypergraph forward: the enhanced item table, uncached (train mode).
        model.train()
        with no_grad():
            model.item_representations()
            started = time.perf_counter()
            for _ in range(PERF_STEPS):
                model.item_representations()
            hypergraph_forward = (time.perf_counter() - started) / PERF_STEPS

        # Full evaluation pass over the validation split (clamp negatives so
        # tiny smoke corpora stay evaluable, mirroring the Trainer).
        max_profile = max(len(dataset.items_of_user(u)) for u in dataset.users)
        num_negatives = min(99, max(1, dataset.num_items - max_profile - 1))
        candidates = CandidateSets(dataset, context.split.valid, num_negatives, seed=5)
        evaluate_ranking(model, context.split.valid, candidates, dataset.schema)
        started = time.perf_counter()
        evaluate_ranking(model, context.split.valid, candidates, dataset.schema)
        eval_pass = time.perf_counter() - started

    return {"train_step": train_step,
            "hypergraph_forward": hypergraph_forward,
            "eval_pass": eval_pass}


def run_bench() -> dict:
    """Measure both modes, print a summary, and write BENCH_P1.json."""
    fast = _measure_mode(reference=False)
    reference = _measure_mode(reference=True)
    workloads = {}
    for name in fast:
        workloads[name] = {
            "fast_seconds": fast[name],
            "reference_seconds": reference[name],
            "speedup": reference[name] / fast[name] if fast[name] > 0 else float("inf"),
        }
    payload = {
        "benchmark": "P1",
        "host": host_info(),
        "config": {"preset": "taobao", "scale": PERF_SCALE, "dim": PERF_DIM,
                   "batch_size": PERF_BATCH, "steps": PERF_STEPS,
                   "min_speedup": PERF_MIN_SPEEDUP},
        "workloads": workloads,
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out_path = RESULTS_DIR / "BENCH_P1.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print()
    for name, numbers in workloads.items():
        print(f"  {name:20s} fast={numbers['fast_seconds']:.4f}s "
              f"reference={numbers['reference_seconds']:.4f}s "
              f"speedup={numbers['speedup']:.2f}x")
    print(f"  written to {out_path}")
    return payload


def test_p1_hotpaths():
    payload = run_bench()
    assert (RESULTS_DIR / "BENCH_P1.json").exists()
    train = payload["workloads"]["train_step"]
    assert train["speedup"] >= PERF_MIN_SPEEDUP, (
        f"training-step speedup {train['speedup']:.2f}x below the "
        f"{PERF_MIN_SPEEDUP:.2f}x floor")
    # The fast paths must never regress the other workloads materially.
    for name in ("hypergraph_forward", "eval_pass"):
        assert payload["workloads"][name]["speedup"] >= 0.8, name


if __name__ == "__main__":
    result = run_bench()
    speedup = result["workloads"]["train_step"]["speedup"]
    if speedup < PERF_MIN_SPEEDUP:
        raise SystemExit(f"training-step speedup {speedup:.2f}x below "
                         f"{PERF_MIN_SPEEDUP:.2f}x")
