"""Tests for the ranking evaluator and candidate-set protocol."""

import numpy as np
import pytest

from repro.core.base import SequentialRecommender
from repro.eval import CandidateSets, evaluate_ranking, precollate, rank_all
from repro.nn.tensor import Tensor


class OracleModel(SequentialRecommender):
    """Scores the true target highest — must achieve perfect metrics."""

    def __init__(self, targets_by_user):
        super().__init__()
        self.targets = targets_by_user

    def score_candidates(self, batch, candidates):
        scores = np.zeros(candidates.shape)
        for row, user in enumerate(batch.users):
            scores[row] = (candidates[row] == self.targets[int(user)]).astype(float)
        return Tensor(scores)


class AntiOracleModel(OracleModel):
    """Scores the true target lowest — must achieve zero HR."""

    def score_candidates(self, batch, candidates):
        return Tensor(-super().score_candidates(batch, candidates).numpy())


class TestCandidateSets:
    def test_positive_first_and_negatives_unseen(self, tiny_dataset, tiny_split):
        sets = CandidateSets(tiny_dataset, tiny_split.test, num_negatives=30, seed=0)
        assert len(sets) == len(tiny_split.test)
        for example, row in zip(tiny_split.test, sets.candidates):
            assert row[0] == example.target
            user_items = tiny_dataset.items_of_user(example.user)
            assert not (set(row[1:].tolist()) & user_items)

    def test_deterministic_under_seed(self, tiny_dataset, tiny_split):
        a = CandidateSets(tiny_dataset, tiny_split.test, 20, seed=5)
        b = CandidateSets(tiny_dataset, tiny_split.test, 20, seed=5)
        assert np.array_equal(a.candidates, b.candidates)

    def test_slice(self, tiny_dataset, tiny_split):
        sets = CandidateSets(tiny_dataset, tiny_split.test, 10, seed=0)
        rows = sets.slice(np.array([0, 2]))
        assert rows.shape == (2, 11)

    def test_empty_examples(self, tiny_dataset):
        sets = CandidateSets(tiny_dataset, [], 10, seed=0)
        assert len(sets) == 0


class TestEvaluator:
    def test_oracle_scores_perfectly(self, tiny_dataset, tiny_split):
        targets = {e.user: e.target for e in tiny_split.test}
        model = OracleModel(targets)
        sets = CandidateSets(tiny_dataset, tiny_split.test, 30, seed=0)
        report = evaluate_ranking(model, tiny_split.test, sets, tiny_dataset.schema)
        assert report["HR@5"] == 1.0
        assert report["NDCG@10"] == 1.0
        assert report["MRR"] == 1.0

    def test_anti_oracle_scores_zero(self, tiny_dataset, tiny_split):
        targets = {e.user: e.target for e in tiny_split.test}
        model = AntiOracleModel(targets)
        sets = CandidateSets(tiny_dataset, tiny_split.test, 30, seed=0)
        report = evaluate_ranking(model, tiny_split.test, sets, tiny_dataset.schema)
        assert report["HR@10"] == 0.0

    def test_rank_all_preserves_order(self, tiny_dataset, tiny_split):
        targets = {e.user: e.target for e in tiny_split.test}
        sets = CandidateSets(tiny_dataset, tiny_split.test, 30, seed=0)
        ranks = rank_all(OracleModel(targets), tiny_split.test, sets,
                         tiny_dataset.schema, batch_size=7)
        assert ranks.shape == (len(tiny_split.test),)
        assert (ranks == 0).all()

    def test_misaligned_candidates_rejected(self, tiny_dataset, tiny_split):
        sets = CandidateSets(tiny_dataset, tiny_split.test[:2], 10, seed=0)
        with pytest.raises(ValueError):
            rank_all(OracleModel({}), tiny_split.test, sets, tiny_dataset.schema)

    def test_model_left_in_train_mode(self, tiny_dataset, tiny_split):
        targets = {e.user: e.target for e in tiny_split.test}
        model = OracleModel(targets)
        sets = CandidateSets(tiny_dataset, tiny_split.test, 10, seed=0)
        evaluate_ranking(model, tiny_split.test, sets, tiny_dataset.schema)
        assert model.training

    def test_eval_mode_model_stays_in_eval_mode(self, tiny_dataset, tiny_split):
        # Evaluating a model that is already in eval mode must not flip it
        # back to training (which would invalidate inference caches).
        targets = {e.user: e.target for e in tiny_split.test}
        model = OracleModel(targets)
        model.eval()
        sets = CandidateSets(tiny_dataset, tiny_split.test, 10, seed=0)
        rank_all(model, tiny_split.test, sets, tiny_dataset.schema)
        assert not model.training

    def test_precollated_batches_match_direct(self, tiny_dataset, tiny_split):
        targets = {e.user: e.target for e in tiny_split.test}
        model = OracleModel(targets)
        sets = CandidateSets(tiny_dataset, tiny_split.test, 10, seed=0)
        batches = precollate(tiny_split.test, sets, tiny_dataset.schema,
                             batch_size=7)
        direct = rank_all(model, tiny_split.test, sets, tiny_dataset.schema,
                          batch_size=7)
        cached = rank_all(model, tiny_split.test, sets, tiny_dataset.schema,
                          precollated=batches)
        assert np.array_equal(direct, cached)

    def test_precollate_misaligned_rejected(self, tiny_dataset, tiny_split):
        sets = CandidateSets(tiny_dataset, tiny_split.test[:2], 10, seed=0)
        with pytest.raises(ValueError):
            precollate(tiny_split.test, sets, tiny_dataset.schema)
