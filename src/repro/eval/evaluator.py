"""Ranking evaluator driving any model that implements ``score_candidates``.

The model contract (see :class:`repro.baselines.base.SequentialRecommender`):
``score_candidates(batch, candidates)`` returns a ``(B, C)`` score tensor for
the ``(B, C)`` candidate item-id matrix, higher = more likely next item.
"""

from __future__ import annotations

import numpy as np

from repro.data.batching import collate
from repro.data.schema import BehaviorSchema
from repro.data.splits import SequenceExample
from repro.nn.tensor import no_grad
from repro.obs import span

from .metrics import MetricReport, ranks_from_scores
from .protocol import CandidateSets

__all__ = ["evaluate_ranking", "rank_all", "precollate"]


def precollate(examples: list[SequenceExample], candidate_sets: CandidateSets,
               schema: BehaviorSchema, batch_size: int = 128) -> list[tuple]:
    """Pre-collate evaluation batches for repeated ranking passes.

    Returns ``[(batch, candidates), ...]`` chunks ready for
    ``model.score_candidates``.  Evaluation examples and candidate sets are
    fixed for the lifetime of a split, so a trainer that evaluates every
    epoch can collate once and pass the result to :func:`rank_all` via
    ``precollated=`` instead of re-building identical batches each time.
    """
    if len(examples) != len(candidate_sets):
        raise ValueError("examples and candidate sets are misaligned")
    chunks = [np.arange(start, min(start + batch_size, len(examples)))
              for start in range(0, len(examples), batch_size)]
    return [(collate([examples[i] for i in chunk_idx], schema),
             candidate_sets.slice(chunk_idx))
            for chunk_idx in chunks]


def rank_all(model, examples: list[SequenceExample], candidate_sets: CandidateSets,
             schema: BehaviorSchema, batch_size: int = 128,
             precollated: list[tuple] | None = None) -> np.ndarray:
    """Compute the positive item's rank for every example.

    Returns an ``(N,)`` int array of 0-based ranks; input ordering preserved.
    ``precollated`` (from :func:`precollate`) skips per-call batch collation.
    The model's train/eval mode is restored on exit rather than forced to
    train mode: evaluating an already-eval model must not flip it back to
    training (which would, e.g., invalidate cached inference tables).
    """
    with span("eval.rank_all", examples=len(examples),
              model=type(model).__name__):
        if precollated is None:
            precollated = precollate(examples, candidate_sets, schema,
                                     batch_size=batch_size)
        was_training = bool(getattr(model, "training", False))
        model.eval()
        ranks = []
        try:
            for batch, candidates in precollated:
                with no_grad():
                    scores = model.score_candidates(batch, candidates)
                ranks.append(ranks_from_scores(scores.numpy()))
        finally:
            if was_training:
                model.train()
        return np.concatenate(ranks) if ranks else np.zeros(0, dtype=np.int64)


def evaluate_ranking(model, examples: list[SequenceExample], candidate_sets: CandidateSets,
                     schema: BehaviorSchema, ks: tuple[int, ...] = (5, 10, 20),
                     batch_size: int = 128,
                     precollated: list[tuple] | None = None) -> MetricReport:
    """Full sampled-ranking evaluation → HR@K / NDCG@K / MRR report."""
    ranks = rank_all(model, examples, candidate_sets, schema, batch_size=batch_size,
                     precollated=precollated)
    return MetricReport.from_ranks(ranks, ks=ks)
