"""Tests for the full-catalog ranking protocol."""

import numpy as np
import pytest

from repro.core.base import SequentialRecommender
from repro.eval import evaluate_full_ranking, full_ranking_ranks
from repro.nn.tensor import Tensor


class FixedScores(SequentialRecommender):
    """Scores every item by a fixed global score vector (index = item id)."""

    def __init__(self, scores_by_item):
        super().__init__()
        self.scores_by_item = scores_by_item

    def score_candidates(self, batch, candidates):
        return Tensor(self.scores_by_item[candidates])


class TestFullRanking:
    def test_oracle_ranks_zero(self, tiny_dataset, tiny_split):
        scores = np.zeros(tiny_dataset.num_items + 1)
        # Give each test target the global top score... impossible for all at
        # once, so test per-single-example batches with a tailored oracle.
        example = tiny_split.test[0]
        scores[example.target] = 10.0
        model = FixedScores(scores)
        ranks = full_ranking_ranks(model, tiny_dataset, [example])
        assert ranks.tolist() == [0]

    def test_seen_items_excluded(self, tiny_dataset, tiny_split):
        """Items the user interacted with must not count as competitors."""
        example = tiny_split.test[0]
        seen = tiny_dataset.items_of_user(example.user) - {example.target}
        scores = np.zeros(tiny_dataset.num_items + 1)
        # Score every seen item above the target.  Seen items are masked out
        # of the candidate pool, so the target (50) only competes against
        # unseen items (0) and must rank first.
        for item in seen:
            scores[item] = 100.0
        scores[example.target] = 50.0
        model = FixedScores(scores)
        ranks = full_ranking_ranks(model, tiny_dataset, [example])
        assert ranks[0] == 0

    def test_worst_case_rank(self, tiny_dataset, tiny_split):
        example = tiny_split.test[0]
        scores = np.ones(tiny_dataset.num_items + 1)
        scores[example.target] = -5.0
        model = FixedScores(scores)
        ranks = full_ranking_ranks(model, tiny_dataset, [example])
        seen = tiny_dataset.items_of_user(example.user) - {example.target}
        expected_competitors = tiny_dataset.num_items - len(seen) - 1
        assert ranks[0] == expected_competitors

    def test_report_keys(self, tiny_dataset, tiny_split):
        scores = np.arange(tiny_dataset.num_items + 1, dtype=float)
        model = FixedScores(scores)
        report = evaluate_full_ranking(model, tiny_dataset, tiny_split.test[:10],
                                       ks=(10, 20))
        assert set(report) == {"HR@10", "NDCG@10", "HR@20", "NDCG@20", "MRR"}

    def test_full_harder_than_sampled(self, tiny_dataset, tiny_split, rng):
        """With random scores, full ranking gives (weakly) worse metrics than
        the sampled protocol because there are more competitors."""
        scores = rng.normal(size=tiny_dataset.num_items + 1)
        model = FixedScores(scores)
        full = evaluate_full_ranking(model, tiny_dataset, tiny_split.test, ks=(10,))
        from repro.eval import CandidateSets, evaluate_ranking
        sampled = evaluate_ranking(
            model, tiny_split.test,
            CandidateSets(tiny_dataset, tiny_split.test, 30, seed=0),
            tiny_dataset.schema, ks=(10,))
        assert full["HR@10"] <= sampled["HR@10"] + 1e-9

    @pytest.mark.parametrize("training", [True, False])
    def test_restores_model_mode(self, tiny_dataset, tiny_split, training):
        model = FixedScores(np.zeros(tiny_dataset.num_items + 1))
        model.train(training)
        full_ranking_ranks(model, tiny_dataset, tiny_split.test[:3])
        assert model.training is training
