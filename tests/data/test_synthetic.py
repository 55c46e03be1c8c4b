"""Tests for the synthetic multi-behavior generator."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (SyntheticConfig, TAOBAO_SCHEMA, generate, taobao_like, tmall_like,
                        yelp_like)
from repro.data.synthetic import _cdf, _draw

SMALL = SyntheticConfig(num_users=40, num_items=100, num_interests=4,
                        interests_per_user=2, min_target_events=3, name="small")


class TestGeneration:
    def test_deterministic_under_seed(self):
        a = generate(SMALL, seed=3)
        b = generate(SMALL, seed=3)
        assert [e for e in a.interactions()] == [e for e in b.interactions()]

    def test_different_seeds_differ(self):
        a = generate(SMALL, seed=3)
        b = generate(SMALL, seed=4)
        assert a.interactions() != b.interactions()

    def test_every_user_has_min_target_events(self):
        ds = generate(SMALL, seed=0)
        target = ds.schema.target
        for user in ds.users:
            assert len(ds.sequence(user, target)) >= SMALL.min_target_events

    def test_all_users_present(self):
        ds = generate(SMALL, seed=0)
        assert ds.num_users == SMALL.num_users

    def test_item_ids_in_range(self):
        ds = generate(SMALL, seed=1)
        for event in ds.interactions():
            assert 1 <= event.item <= SMALL.num_items

    def test_cluster_ground_truth_attached(self):
        ds = generate(SMALL, seed=1)
        clusters = ds.item_clusters
        assert clusters.shape == (SMALL.num_items,)
        assert set(np.unique(clusters)) <= set(range(SMALL.num_interests))


class TestFunnelStructure:
    def test_views_dominate(self):
        ds = generate(SMALL, seed=2)
        stats = ds.stats().interactions_per_behavior
        assert stats["view"] > stats["cart"] > stats["fav"]

    def test_funnel_events_follow_views(self):
        """Every cart event's item was viewed at the immediately preceding tick."""
        ds = generate(SMALL, seed=2)
        for user in ds.users[:10]:
            views = dict()
            for item, ts in ds.sequence_with_times(user, "view"):
                views[ts] = item
            for item, ts in ds.sequence_with_times(user, "cart"):
                assert views.get(ts - 1) == item

    def test_most_buys_previously_viewed(self):
        """The funnel implies a large share of purchases were seen before."""
        ds = generate(SMALL, seed=2)
        seen_before = 0
        total = 0
        for user in ds.users:
            viewed = set()
            merged = ds.merged_sequence(user)
            for item, behavior, ts in merged:
                if behavior == "buy":
                    total += 1
                    seen_before += item in viewed
                elif behavior == "view":
                    viewed.add(item)
        assert seen_before / total > 0.4


class TestConfigValidation:
    def test_bad_interests(self):
        with pytest.raises(ValueError):
            SyntheticConfig(num_interests=0)

    def test_interests_per_user_bounds(self):
        with pytest.raises(ValueError):
            SyntheticConfig(num_interests=3, interests_per_user=5)

    def test_noise_rate_bounds(self):
        with pytest.raises(ValueError):
            SyntheticConfig(noise_rate=1.5)

    def test_funnel_stage_must_exist(self):
        with pytest.raises(ValueError):
            SyntheticConfig(funnel={"wishlist": 0.5})


class TestPresets:
    @pytest.mark.parametrize("factory", [taobao_like, tmall_like, yelp_like])
    def test_presets_scale(self, factory):
        small = factory(0.5)
        big = factory(1.0)
        assert small.num_users < big.num_users
        assert small.num_items < big.num_items

    def test_preset_schemas(self):
        assert taobao_like().schema.target == "buy"
        assert yelp_like().schema.target == "tip"

    @pytest.mark.parametrize("factory", [taobao_like, tmall_like, yelp_like])
    def test_presets_generate(self, factory):
        ds = generate(factory(0.1), seed=0)
        assert ds.num_interactions > 0


def corpus_digest(dataset) -> str:
    """sha256 over every event (Python ``repr``, so an item that turned into
    a NumPy scalar changes it) and the planted cluster labels."""
    digest = hashlib.sha256()
    for event in dataset.interactions():
        digest.update(repr((event.user, event.item, event.behavior,
                            event.timestamp)).encode())
    digest.update(np.asarray(dataset.item_clusters, dtype=np.int64).tobytes())
    return digest.hexdigest()


class TestFrozenCorpus:
    """Every experiment, checkpoint and served corpus is rebuilt from
    ``generate``; these digests were taken before its item and cluster draws
    moved from ``rng.choice(p=...)`` to precomputed CDFs."""

    @pytest.mark.parametrize("factory, events, expected", [
        (taobao_like, 12207,
         "3ae9ba8024a6189d3dbeee3204cb285227f040b2fd7566af28162de59a4cb143"),
        (tmall_like, 8934,
         "e5a8441d9154203df0a6d296b988818e80fcf7930acbaeca902b22cdce22e152"),
        (yelp_like, 4870,
         "822a4a853574637f204ef91eb01570cced1e3b54a5b31bb568b0649ce0ace2fb"),
    ])
    def test_preset_output_is_bitwise_frozen(self, factory, events, expected):
        ds = generate(factory(0.5), seed=3)
        assert ds.num_interactions == events
        assert corpus_digest(ds) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1,
                    max_size=12).filter(lambda w: sum(w) > 0),
           st.integers(min_value=0, max_value=2 ** 32),
           st.integers(min_value=1, max_value=40))
    def test_cdf_draw_equals_choice_draw_for_draw(self, weights, seed, draws):
        probs = np.asarray(weights, dtype=np.float64)
        probs = probs / probs.sum()
        cdf = _cdf(probs)
        reference, fast = (np.random.default_rng(seed),
                           np.random.default_rng(seed))
        for _ in range(draws):
            assert _draw(fast, cdf) == reference.choice(probs.size, p=probs)
        assert fast.random() == reference.random()  # streams still aligned
