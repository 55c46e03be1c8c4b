"""Serving-style recommendation API.

The evaluation stack ranks pre-drawn candidates; a *deployed* recommender
answers "give me the top-k items for this user, excluding what they already
interacted with."  :func:`recommend` provides that surface over any trained
:class:`~repro.core.base.SequentialRecommender`, building the user's input
from the corpus on the fly.

    >>> recs = recommend(model, dataset, user=42, k=10)
    >>> [r.item for r in recs]
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.batching import collate
from repro.data.dataset import MultiBehaviorDataset
from repro.data.splits import SequenceExample
from repro.nn.tensor import no_grad

__all__ = ["Recommendation", "recommend", "recommend_batch", "build_inference_example",
           "top_k"]


@dataclass(frozen=True)
class Recommendation:
    """One recommended item with its model score and rank (0-based)."""

    item: int
    score: float
    rank: int


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``k`` best finite entries of a 1-D ``scores`` vector.

    The order is (score descending, position ascending): exact ties go to
    the lower item id, whatever the selection algorithm does with them.  A
    partition finds the ``k``-th best score, and only the entries at or
    above it are sorted.  Non-finite entries (masked or unscored items) are
    never returned, so fewer than ``k`` positions come back when fewer than
    ``k`` scores are finite.  Every item ranking, offline and served, goes
    through this function, which keeps their top-k lists interchangeable.
    """
    size = scores.shape[0]
    if k < size:
        # Selecting the k-th best at k - 1 of the negation stays fast when
        # most entries tie at -inf (an approximate index's unscored rows);
        # selecting at size - k took 9x longer there.
        kth = -np.partition(-scores, k - 1)[k - 1]
        candidates = np.flatnonzero(scores >= kth)
    else:
        candidates = np.arange(size)
    candidates = candidates[np.isfinite(scores[candidates])]
    order = np.argsort(-scores[candidates], kind="stable")[:k]
    return candidates[order]


def build_inference_example(dataset: MultiBehaviorDataset, user: int,
                            max_len: int = 50) -> SequenceExample:
    """The prediction input for ``user``'s *entire* recorded history.

    Unlike split examples (which cut at a target event), inference consumes
    everything the corpus knows about the user.  The ``target`` field is a
    placeholder (0 is never a real item) and must not be read.
    """
    if not dataset.has_user(user):
        raise KeyError(f"user {user} not in the corpus")
    schema = dataset.schema
    inputs = {
        behavior: tuple(dataset.sequence(user, behavior)[-max_len:])
        for behavior in schema.behaviors
    }
    merged = [(item, schema.behavior_id(behavior))
              for item, behavior, _ in dataset.merged_sequence(user)][-max_len:]
    return SequenceExample(
        user=user,
        inputs=inputs,
        merged_items=tuple(item for item, _ in merged),
        merged_behavior_ids=tuple(bid for _, bid in merged),
        target=1,  # placeholder; never used for inference
    )


def recommend_batch(model, dataset: MultiBehaviorDataset, users: list[int],
                    k: int = 10, max_len: int = 50,
                    exclude_seen: bool = True) -> dict[int, list[Recommendation]]:
    """Top-``k`` recommendations for several users at once.

    Scores the full catalog per user via :meth:`score_all_items` (one shared
    item block, no per-user candidate tile); items the user already
    interacted with (under any behavior) are excluded when ``exclude_seen``
    is True, and :func:`top_k` ranks what is left.  The model's train/eval
    mode is restored on exit.
    """
    if k < 1:
        raise ValueError("k must be positive")
    examples = [build_inference_example(dataset, user, max_len) for user in users]
    batch = collate(examples, dataset.schema)
    was_training = bool(getattr(model, "training", False))
    model.eval()
    with no_grad():
        scores = model.score_all_items(batch, dataset.num_items).numpy()
    if was_training:
        model.train()
    results: dict[int, list[Recommendation]] = {}
    for row, user in enumerate(users):
        row_scores = scores[row].astype(np.float64, copy=True)
        if exclude_seen:
            seen = dataset.items_of_user(user)
            if seen:
                row_scores[np.fromiter(seen, dtype=np.int64) - 1] = -np.inf
        results[user] = [
            Recommendation(item=int(i) + 1, score=float(row_scores[i]),
                           rank=rank)
            for rank, i in enumerate(top_k(row_scores, k))
        ]
    return results


def recommend(model, dataset: MultiBehaviorDataset, user: int, k: int = 10,
              max_len: int = 50, exclude_seen: bool = True) -> list[Recommendation]:
    """Top-``k`` novel items for one user (see :func:`recommend_batch`)."""
    return recommend_batch(model, dataset, [user], k=k, max_len=max_len,
                           exclude_seen=exclude_seen)[user]
