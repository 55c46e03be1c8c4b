"""P5 — the vectorized input pipeline vs the seed per-row path.

Times input-pipeline epoch throughput: assembling every training batch of
an epoch *including* negative-candidate sampling, exactly what the training
loop does between optimizer steps.  The baseline is a replica of the seed
path (per-row Python ``pad_sequences`` collate + per-row
``NegativeSampler.sample`` calls); the contender is
:class:`repro.data.pipeline.PrefetchLoader` (vectorized CSR collate +
matrix negative sampling).

Writes ``benchmarks/results/BENCH_P5.json`` and asserts the loader beats
the seed baseline by at least ``REPRO_PERF_PIPELINE_MIN_SPEEDUP`` (default
1.5).

Runnable both ways:
    pytest -m perf benchmarks/bench_p5_pipeline.py
    python benchmarks/bench_p5_pipeline.py

Environment knobs (see also benchmarks/common.py):
    REPRO_PERF_SCALE                 dataset scale factor (default 0.4)
    REPRO_PERF_PIPELINE_EPOCHS       timed epochs per loader (default 3)
    REPRO_PERF_PIPELINE_MIN_SPEEDUP  epoch-throughput floor (default 1.5;
                                     set 0 for smoke runs at tiny scale)
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from common import RESULTS_DIR

from repro.data.batching import Batch
from repro.data.pipeline import PrefetchLoader, epoch_order
from repro.data.sampling import NegativeSampler
from repro.experiments import ExperimentContext
from repro.obs import host_info

PERF_SCALE = float(os.environ.get("REPRO_PERF_SCALE", "0.4"))
PERF_EPOCHS = int(os.environ.get("REPRO_PERF_PIPELINE_EPOCHS", "3"))
PERF_MIN_SPEEDUP = float(os.environ.get("REPRO_PERF_PIPELINE_MIN_SPEEDUP", "1.5"))
PERF_BATCH = 128
PERF_NEGATIVES = 50

pytestmark = pytest.mark.perf


# ----------------------------------------------------------------------
# Seed-path replica: the exact per-row Python input path this PR replaces,
# kept here as the benchmark baseline.
# ----------------------------------------------------------------------

def _seed_pad_sequences(sequences, max_len=None, pad_value=0):
    if max_len is None:
        max_len = max((len(s) for s in sequences), default=1)
    max_len = max(max_len, 1)
    matrix = np.full((len(sequences), max_len), pad_value, dtype=np.int64)
    mask = np.zeros((len(sequences), max_len), dtype=bool)
    for row, seq in enumerate(sequences):
        tail = list(seq)[-max_len:]
        if tail:
            matrix[row, -len(tail):] = tail
            mask[row, -len(tail):] = True
    return matrix, mask


def _seed_collate(examples, schema):
    items, masks = {}, {}
    for behavior in schema.behaviors:
        matrix, mask = _seed_pad_sequences([e.inputs[behavior] for e in examples])
        items[behavior] = matrix
        masks[behavior] = mask
    merged_items, merged_mask = _seed_pad_sequences([e.merged_items for e in examples])
    merged_behaviors, _ = _seed_pad_sequences(
        [e.merged_behavior_ids for e in examples], merged_items.shape[1])
    return Batch(
        users=np.array([e.user for e in examples], dtype=np.int64),
        items=items, masks=masks,
        merged_items=merged_items, merged_behaviors=merged_behaviors,
        merged_mask=merged_mask,
        targets=np.array([e.target for e in examples], dtype=np.int64),
    )


def _seed_epoch(examples, schema, sampler, seed, epoch):
    """One epoch of seed-style batch assembly + inline per-row sampling."""
    order = epoch_order(seed, epoch, len(examples), shuffle=True)
    count = 0
    for start in range(0, len(order), PERF_BATCH):
        chunk = order[start:start + PERF_BATCH]
        batch = _seed_collate([examples[i] for i in chunk], schema)
        rows = []
        for user, target in zip(batch.users, batch.targets):
            negatives = sampler.sample(int(user), PERF_NEGATIVES,
                                       exclude={int(target)})
            rows.append(np.concatenate([[target], negatives]))
        batch.candidates = np.stack(rows).astype(np.int64)
        count += batch.size
    return count


def _pipeline_epochs(examples, schema, dataset) -> float:
    """Examples/second assembling PERF_EPOCHS epochs on the new pipeline."""
    loader = PrefetchLoader(examples, schema, PERF_BATCH, seed=9,
                            negatives=PERF_NEGATIVES, dataset=dataset)
    for batch in loader:        # warm-up epoch: prime caches
        pass
    started = time.perf_counter()
    count = 0
    for _ in range(PERF_EPOCHS):
        for batch in loader:
            count += batch.size
    return count / (time.perf_counter() - started)


def run_bench() -> dict:
    """Measure the seed path and the loader, print a summary, write the JSON."""
    context = ExperimentContext.build("taobao", scale=PERF_SCALE, seed=1)
    dataset = context.dataset
    examples = context.split.train

    # Seed baseline throughput (same per-(epoch, batch) schedule).
    sampler = NegativeSampler(dataset, np.random.default_rng(3))
    _seed_epoch(examples, dataset.schema, sampler, seed=9, epoch=0)
    started = time.perf_counter()
    count = sum(_seed_epoch(examples, dataset.schema, sampler, seed=9, epoch=e)
                for e in range(PERF_EPOCHS))
    seed_throughput = count / (time.perf_counter() - started)
    loader_throughput = _pipeline_epochs(examples, dataset.schema, dataset)

    payload = {
        "benchmark": "P5",
        "host": host_info(),
        "config": {"preset": "taobao", "scale": PERF_SCALE,
                   "batch_size": PERF_BATCH, "negatives": PERF_NEGATIVES,
                   "epochs": PERF_EPOCHS, "min_speedup": PERF_MIN_SPEEDUP},
        "input_pipeline": {
            "seed_examples_per_second": seed_throughput,
            "prefetch_examples_per_second": loader_throughput,
            "speedup": loader_throughput / seed_throughput,
        },
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out_path = RESULTS_DIR / "BENCH_P5.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print()
    print(f"  seed loader          {seed_throughput:10.0f} examples/s")
    print(f"  PrefetchLoader       {loader_throughput:10.0f} examples/s "
          f"({payload['input_pipeline']['speedup']:.2f}x)")
    print(f"  written to {out_path}")
    return payload


def test_p5_pipeline():
    payload = run_bench()
    assert (RESULTS_DIR / "BENCH_P5.json").exists()
    speedup = payload["input_pipeline"]["speedup"]
    assert speedup >= PERF_MIN_SPEEDUP, (
        f"loader epoch throughput {speedup:.2f}x below the "
        f"{PERF_MIN_SPEEDUP:.2f}x floor")


if __name__ == "__main__":
    result = run_bench()
    speedup = result["input_pipeline"]["speedup"]
    if speedup < PERF_MIN_SPEEDUP:
        raise SystemExit(f"loader speedup {speedup:.2f}x "
                         f"below {PERF_MIN_SPEEDUP:.2f}x")
