"""The model contract shared by MISSL and every baseline.

A *sequential recommender* maps a :class:`~repro.data.batching.Batch` to user
representations and scores candidate items.  User state may be a single
vector ``(B, D)`` or K interest vectors ``(B, K, D)``; scoring takes the max
over interests (which degenerates to a plain dot product when K = 1), the
standard read-out of the multi-interest literature.
"""

from __future__ import annotations

import numpy as np

from repro.data.batching import Batch
from repro.data.sampling import NegativeSampler
from repro.nn.losses import cross_entropy_with_candidates
from repro.nn.module import Module
from repro.nn.tensor import Tensor

__all__ = ["SequentialRecommender"]


class SequentialRecommender(Module):
    """Abstract base: subclasses implement ``user_representation`` and expose
    an item embedding table via ``item_representations``.

    Multi-interest read-out is controlled by two attributes subclasses may
    set (defaults give the standard hard read-out):

    * ``score_mode`` — ``"max"`` (hard argmax over interests) or
      ``"softmax"`` (label-aware attention: interests are weighted by their
      affinity to the candidate, MIND-style).
    * ``score_pow`` — sharpness of the label-aware attention (higher →
      closer to max; ignored under ``"max"``).
    """

    score_mode: str = "max"
    score_pow: float = 1.0

    def interest_readout(self, per_interest: Tensor) -> Tensor:
        """Collapse ``(B, K, C)`` per-interest scores to ``(B, C)``."""
        if self.score_mode == "max":
            return per_interest.max(axis=1)
        if self.score_mode == "softmax":
            from repro.nn import functional as F
            weights = F.softmax(per_interest * self.score_pow, axis=1)
            return (weights * per_interest).sum(axis=1)
        raise ValueError(f"unknown score_mode {self.score_mode!r}")

    # ------------------------------------------------------------------
    # required interface
    # ------------------------------------------------------------------
    def user_representation(self, batch: Batch) -> Tensor:
        """User state: ``(B, D)`` or ``(B, K, D)``."""
        raise NotImplementedError

    def item_representations(self) -> Tensor:
        """The full item embedding table ``(num_items + 1, D)`` used for scoring."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def score_candidates(self, batch: Batch, candidates: np.ndarray) -> Tensor:
        """Scores ``(B, C)`` for the candidate id matrix ``(B, C)``."""
        users = self.user_representation(batch)
        table = self.item_representations()
        item_vectors = table.take(candidates, axis=0)  # (B, C, D)
        if users.ndim == 2:
            scores = (item_vectors * users.expand_dims(1)).sum(axis=-1)  # (B, C)
        elif users.ndim == 3:
            per_interest = users @ item_vectors.swapaxes(-1, -2)         # (B, K, C)
            scores = self.interest_readout(per_interest)
        else:
            raise ValueError(f"unexpected user representation shape {users.shape}")
        return scores

    def _supports_factored_scoring(self) -> bool:
        """True when scoring decomposes into user/item representations.

        Models that override ``score_candidates`` directly (popularity,
        neighborhood methods, …) keep their custom semantics; the factored
        full-catalog path below is only valid when the base implementation
        is the one in effect and both representation hooks are provided.
        """
        cls = type(self)
        return (cls.score_candidates is SequentialRecommender.score_candidates
                and cls.user_representation is not SequentialRecommender.user_representation
                and cls.item_representations is not SequentialRecommender.item_representations)

    def score_all_items(self, batch: Batch, num_items: int) -> Tensor:
        """Scores ``(B, num_items)`` over the whole catalog (column ``i`` is
        item ``i + 1``) without materializing a per-user candidate matrix.

        The factored path shares one ``(num_items, D)`` item block across the
        batch — ``O(items)`` memory instead of the ``O(batch × items)`` tile
        (and ``O(batch × items × D)`` gather) that per-row candidate scoring
        costs.  Models with custom ``score_candidates`` fall back to that
        method on a broadcast (read-only, zero-copy) candidate view.
        """
        all_items = np.arange(1, num_items + 1, dtype=np.int64)
        if not self._supports_factored_scoring():
            candidates = np.broadcast_to(all_items, (batch.size, num_items))
            return self.score_candidates(batch, candidates)
        users = self.user_representation(batch)
        table = self.item_representations()
        item_vectors = table.take(all_items, axis=0)              # (N, D)
        if users.ndim == 2:
            return users @ item_vectors.swapaxes(-1, -2)          # (B, N)
        if users.ndim == 3:
            per_interest = users @ item_vectors.swapaxes(-1, -2)  # (B, K, N)
            return self.interest_readout(per_interest)
        raise ValueError(f"unexpected user representation shape {users.shape}")

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def sample_training_candidates(self, batch: Batch, sampler: NegativeSampler,
                                   num_negatives: int) -> np.ndarray:
        """Per-row ``[positive, negatives...]`` candidates for sampled softmax.

        Batches assembled by :class:`~repro.data.pipeline.PrefetchLoader`
        arrive with the candidates presampled (``batch.candidates``);
        those are consumed directly when the width matches the requested
        negative count, otherwise sampling happens inline as before.
        """
        presampled = batch.candidates
        if presampled is not None and presampled.shape[1] == num_negatives + 1:
            return presampled
        rows = []
        for user, target in zip(batch.users, batch.targets):
            negatives = sampler.sample(int(user), num_negatives, exclude={int(target)})
            rows.append(np.concatenate([[target], negatives]))
        return np.stack(rows).astype(np.int64)

    def training_loss(self, batch: Batch, sampler: NegativeSampler,
                      num_negatives: int = 50) -> Tensor:
        """Sampled-softmax next-item loss; subclasses may add auxiliary terms."""
        candidates = self.sample_training_candidates(batch, sampler, num_negatives)
        scores = self.score_candidates(batch, candidates)
        return cross_entropy_with_candidates(scores)
