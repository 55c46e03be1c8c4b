"""Tests for the serving-style recommend API."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import Popularity
from repro.recommend import Recommendation, build_inference_example, recommend, \
    recommend_batch, top_k


def reference_top_k(scores, k):
    """(score descending, position ascending) by a plain sort."""
    finite = [i for i in range(len(scores)) if np.isfinite(scores[i])]
    return sorted(finite, key=lambda i: (-scores[i], i))[:k]


@pytest.fixture
def pop_model(tiny_dataset):
    return Popularity(tiny_dataset.num_items).fit(tiny_dataset, target_only=False)


class TestTopK:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([-np.inf, -1.0, 0.0, 0.5, 2.0, 3.0]),
                    min_size=1, max_size=40),
           st.integers(min_value=1, max_value=50))
    def test_matches_a_plain_sort_under_ties(self, values, k):
        scores = np.asarray(values, dtype=np.float64)
        assert top_k(scores, k).tolist() == reference_top_k(scores, k)

    def test_ties_go_to_the_lower_position(self):
        scores = np.array([1.0, 3.0, 3.0, 2.0, 3.0])
        assert top_k(scores, 2).tolist() == [1, 2]
        assert top_k(scores, 4).tolist() == [1, 2, 4, 3]

    def test_k_at_or_beyond_the_catalog(self):
        scores = np.array([0.5, 2.0, 2.0, -1.0])
        for k in (4, 5, 100):
            assert top_k(scores, k).tolist() == [1, 2, 0, 3]

    def test_fewer_finite_scores_than_k(self):
        scores = np.array([-np.inf, 2.0, -np.inf, 1.0, -np.inf])
        assert top_k(scores, 3).tolist() == [1, 3]
        assert top_k(np.full(4, -np.inf), 2).tolist() == []


class TestInferenceExample:
    def test_consumes_full_history(self, tiny_dataset):
        user = tiny_dataset.users[0]
        example = build_inference_example(tiny_dataset, user, max_len=100)
        for behavior in tiny_dataset.schema.behaviors:
            assert list(example.inputs[behavior]) == \
                tiny_dataset.sequence(user, behavior)[-100:]

    def test_max_len_truncates(self, tiny_dataset):
        user = tiny_dataset.users[0]
        example = build_inference_example(tiny_dataset, user, max_len=2)
        assert len(example.merged_items) <= 2

    def test_unknown_user_rejected(self, tiny_dataset):
        with pytest.raises(KeyError):
            build_inference_example(tiny_dataset, 99_999)


class TestRecommend:
    def test_top_k_shape_and_order(self, tiny_dataset, pop_model):
        user = tiny_dataset.users[0]
        recs = recommend(pop_model, tiny_dataset, user, k=5)
        assert len(recs) == 5
        assert all(isinstance(r, Recommendation) for r in recs)
        scores = [r.score for r in recs]
        assert scores == sorted(scores, reverse=True)
        assert [r.rank for r in recs] == list(range(5))

    def test_seen_items_excluded(self, tiny_dataset, pop_model):
        user = tiny_dataset.users[0]
        seen = tiny_dataset.items_of_user(user)
        recs = recommend(pop_model, tiny_dataset, user, k=10)
        assert not ({r.item for r in recs} & seen)

    def test_seen_items_allowed_when_disabled(self, tiny_dataset, pop_model):
        """With exclusion off, popularity recommends globally popular items,
        seen or not."""
        popularity = tiny_dataset.item_popularity()
        top_item = int(popularity.argmax())
        user = next(u for u in tiny_dataset.users
                    if top_item in tiny_dataset.items_of_user(u))
        recs = recommend(pop_model, tiny_dataset, user, k=3, exclude_seen=False)
        assert recs[0].item == top_item

    def test_batch_matches_single(self, tiny_dataset, pop_model):
        users = tiny_dataset.users[:3]
        batched = recommend_batch(pop_model, tiny_dataset, users, k=4)
        for user in users:
            single = recommend(pop_model, tiny_dataset, user, k=4)
            assert [r.item for r in single] == [r.item for r in batched[user]]

    def test_score_ties_rank_by_ascending_item_id(self, tiny_dataset,
                                                  pop_model):
        users = tiny_dataset.users[:4]
        batched = recommend_batch(pop_model, tiny_dataset, users, k=30)
        # Popularity over every behavior scores item i by its count.
        scores = tiny_dataset.item_popularity()[1:].astype(np.float64)
        tied = 0
        for user in users:
            masked = scores.copy()
            masked[np.fromiter(tiny_dataset.items_of_user(user),
                               dtype=np.int64) - 1] = -np.inf
            expected = [i + 1 for i in reference_top_k(masked, 30)]
            recs = batched[user]
            assert [r.item for r in recs] == expected
            tied += sum(a.score == b.score for a, b in zip(recs, recs[1:]))
        assert tied > 0  # the popularity scores really do tie

    def test_invalid_k(self, tiny_dataset, pop_model):
        with pytest.raises(ValueError):
            recommend(pop_model, tiny_dataset, tiny_dataset.users[0], k=0)

    def test_works_with_trained_missl(self, tiny_dataset, tiny_graph):
        from repro.core import MISSL, MISSLConfig
        config = MISSLConfig(dim=16, num_interests=2, max_len=20,
                             num_train_negatives=8, lambda_aug=0.0)
        model = MISSL(tiny_dataset.num_items, tiny_dataset.schema, tiny_graph,
                      config, seed=0)
        recs = recommend(model, tiny_dataset, tiny_dataset.users[0], k=5, max_len=20)
        assert len(recs) == 5
        assert all(1 <= r.item <= tiny_dataset.num_items for r in recs)
