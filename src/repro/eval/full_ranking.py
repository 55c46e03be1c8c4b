"""Full-catalog ranking evaluation (the un-sampled protocol).

The sampled 99-negative protocol is the paper's headline setting; the
all-item protocol is the stricter alternative reviewers increasingly ask
for.  For every test example the model scores the entire catalog, items the
user already interacted with (except the target) are masked out, and the
target's rank among the remainder is recorded.
"""

from __future__ import annotations

import numpy as np

from repro.data.batching import collate
from repro.data.dataset import MultiBehaviorDataset
from repro.data.splits import SequenceExample
from repro.nn.tensor import no_grad

from .metrics import MetricReport

__all__ = ["full_ranking_ranks", "evaluate_full_ranking"]


def full_ranking_ranks(model, dataset: MultiBehaviorDataset,
                       examples: list[SequenceExample], batch_size: int = 64
                       ) -> np.ndarray:
    """0-based rank of each example's target among all non-seen items.

    The model's train/eval mode is restored on exit, as in
    :func:`~repro.eval.evaluator.rank_all`.
    """
    was_training = bool(getattr(model, "training", False))
    model.eval()
    all_items = np.arange(1, dataset.num_items + 1)
    ranks: list[int] = []
    try:
        with no_grad():
            for start in range(0, len(examples), batch_size):
                chunk = examples[start:start + batch_size]
                batch = collate(chunk, dataset.schema)
                candidates = np.tile(all_items, (len(chunk), 1))
                scores = model.score_candidates(batch, candidates).numpy()
                for row, example in enumerate(chunk):
                    seen = (dataset.items_of_user(example.user)
                            - {example.target})
                    row_scores = scores[row].copy()
                    if seen:
                        row_scores[np.fromiter(seen, dtype=np.int64) - 1] = \
                            -np.inf
                    target_score = row_scores[example.target - 1]
                    better = int((row_scores > target_score).sum())
                    ties = int((row_scores == target_score).sum()) - 1
                    ranks.append(better + ties)
    finally:
        if was_training:
            model.train()
    return np.asarray(ranks, dtype=np.int64)


def evaluate_full_ranking(model, dataset: MultiBehaviorDataset,
                          examples: list[SequenceExample],
                          ks: tuple[int, ...] = (10, 20, 50),
                          batch_size: int = 64) -> MetricReport:
    """HR@K / NDCG@K / MRR against the whole catalog."""
    ranks = full_ranking_ranks(model, dataset, examples, batch_size=batch_size)
    return MetricReport.from_ranks(ranks, ks=ks)
