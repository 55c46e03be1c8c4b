"""Service-facade tests: offline parity, cache invalidation, recall probes."""

import numpy as np
import pytest

from repro.recommend import recommend, recommend_batch
from repro.serve import HistoryStore, RecommenderService


@pytest.fixture
def service(artifact, history):
    with RecommenderService(artifact, history, index_backend="exact") as svc:
        yield svc


class TestOfflineParity:
    """Acceptance: exact-backend served top-k == repro.recommend top-k."""

    def test_single_requests_match_recommend(self, service, serving_model,
                                             tiny_dataset):
        for user in tiny_dataset.users[:8]:
            served = service.recommend(user, k=10)
            offline = recommend(serving_model, tiny_dataset, user, k=10)
            assert [r.item for r in served] == [r.item for r in offline]
            np.testing.assert_allclose([r.score for r in served],
                                       [r.score for r in offline])
            assert [r.rank for r in served] == list(range(len(served)))

    def test_batch_requests_match_recommend_batch(self, service, serving_model,
                                                  tiny_dataset):
        users = tiny_dataset.users[:6]
        served = service.recommend_many(users, k=5)
        offline = recommend_batch(serving_model, tiny_dataset, users, k=5)
        for user in users:
            assert [r.item for r in served[user]] == \
                [r.item for r in offline[user]]

    def test_served_items_exclude_seen(self, service, tiny_dataset):
        user = tiny_dataset.users[0]
        seen = tiny_dataset.items_of_user(user)
        assert not seen & {r.item for r in service.recommend(user, k=20)}


class TestCacheBehavior:
    def test_repeat_request_hits_cache(self, service, tiny_dataset):
        user = tiny_dataset.users[0]
        first = service.recommend(user, k=5)
        second = service.recommend(user, k=5)
        assert [r.item for r in first] == [r.item for r in second]
        assert service.metrics.cache_hits == 1
        assert service.metrics.cache_misses == 1

    def test_append_event_invalidates_cache(self, service, tiny_dataset):
        user = tiny_dataset.users[0]
        service.recommend(user, k=5)
        novel = service.recommend(user, k=1)[0].item
        assert service.append_event(user, novel,
                                    tiny_dataset.schema.behaviors[0]) == 1
        assert len(service.cache) == 0  # eager invalidation
        after = service.recommend(user, k=20)
        assert novel not in {r.item for r in after}  # now seen
        # The re-encode was a miss: version 1 was never cached before.
        assert service.metrics.cache_misses == 2
        assert service.metrics.cache_hits == 1

    def test_history_version_keying_without_eager_invalidation(
            self, artifact, tiny_dataset):
        # Even bypassing append_event, a direct history append makes the
        # cached entry unreachable because the version is part of the key.
        history = HistoryStore.from_dataset(tiny_dataset)
        with RecommenderService(artifact, history) as svc:
            user = tiny_dataset.users[0]
            svc.recommend(user, k=5)
            history.append(user, 1, tiny_dataset.schema.behaviors[0])
            svc.recommend(user, k=5)
            assert svc.metrics.cache_hits == 0
            assert svc.metrics.cache_misses == 2


class TestStampedeSuppression:
    def test_concurrent_misses_encode_once(self, artifact, tiny_dataset):
        """Four threads missing on the same user yield ONE encode: the first
        claimant owns it, the rest wait on the claim and read the cache."""
        import threading
        import time as time_mod

        history = HistoryStore.from_dataset(tiny_dataset)
        with RecommenderService(artifact, history) as svc:
            real_interests = svc.encoder.interests
            encode_calls = []

            def slow_interests(batch):
                encode_calls.append(1)
                time_mod.sleep(0.25)  # hold the claim open for the stampede
                return real_interests(batch)

            svc.encoder.interests = slow_interests
            user = tiny_dataset.users[0]
            barrier = threading.Barrier(4)
            results = {}

            def hammer(slot):
                barrier.wait()
                results[slot] = svc.recommend_many([user], k=5)[user]

            threads = [threading.Thread(target=hammer, args=(slot,))
                       for slot in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert len(results) == 4
            first = [r.item for r in results[0]]
            assert all([r.item for r in results[slot]] == first
                       for slot in range(4))
            assert len(encode_calls) == 1  # the whole stampede → one encode
            assert svc.metrics.stampedes_suppressed == 3
            stats = svc.stats()
            assert stats["cache"]["stampede_suppressed"] == 3

    def test_owner_failure_releases_waiters(self, artifact, tiny_dataset):
        """An owner whose encode blows up abandons the claim; a waiter falls
        back to encoding for itself instead of deadlocking."""
        import threading

        history = HistoryStore.from_dataset(tiny_dataset)
        with RecommenderService(artifact, history) as svc:
            real_interests = svc.encoder.interests
            waiter_ready = threading.Event()
            outcome = {}

            def exploding_interests(batch):
                waiter_ready.wait(10.0)  # keep the claim open until B waits
                svc.encoder.interests = real_interests
                raise RuntimeError("encoder on fire")

            svc.encoder.interests = exploding_interests
            user = tiny_dataset.users[0]

            def owner():
                try:
                    svc.recommend_many([user], k=5)
                except RuntimeError as error:
                    outcome["owner"] = str(error)

            def waiter():
                while svc.metrics.stampedes_suppressed == 0:
                    pass  # spin until our claim is registered as a wait
                waiter_ready.set()

            owner_thread = threading.Thread(target=owner)
            owner_thread.start()
            import time as time_mod
            time_mod.sleep(0.1)  # let the owner take the claim
            release_thread = threading.Thread(target=waiter)
            release_thread.start()
            outcome["waiter"] = svc.recommend_many([user], k=5)[user]
            owner_thread.join(timeout=30.0)
            release_thread.join(timeout=30.0)
            assert outcome["owner"] == "encoder on fire"
            assert outcome["waiter"]  # served via the fallback encode


class TestApproximateBackend:
    def test_recall_probes_recorded(self, artifact, history):
        with RecommenderService(artifact, history, index_backend="ivf",
                                index_options={"seed": 0},
                                recall_probe_every=1) as svc:
            for user in history.users[:6]:
                svc.recommend(user, k=10)
            stats = svc.stats()
        assert stats["index"]["backend"] == "ivf"
        assert stats["recall"]["samples"] == 6
        assert 0.0 <= stats["recall"]["mean"] <= 1.0

    def test_full_probe_ivf_matches_exact_items(self, artifact, history,
                                                service, tiny_dataset):
        nlist = int(round(np.sqrt(artifact.num_items)))
        with RecommenderService(
                artifact, HistoryStore.from_dataset(tiny_dataset),
                index_backend="ivf",
                index_options={"nlist": nlist, "nprobe": nlist, "seed": 0}) as svc:
            for user in tiny_dataset.users[:4]:
                approx = {r.item for r in svc.recommend(user, k=10)}
                exact = {r.item for r in service.recommend(user, k=10)}
                assert approx == exact


class TestValidationAndStats:
    def test_unknown_user_rejected(self, service):
        with pytest.raises(KeyError, match="not in the history store"):
            service.recommend(10_000_000)
        assert service.metrics.errors == 1

    def test_bad_k_rejected(self, service, tiny_dataset):
        with pytest.raises(ValueError):
            service.recommend(tiny_dataset.users[0], k=0)
        with pytest.raises(ValueError):
            service.recommend_many(tiny_dataset.users[:2], k=-1)

    def test_schema_mismatch_rejected(self, artifact, tiny_dataset):
        from repro.data import BehaviorSchema
        other = HistoryStore(BehaviorSchema(behaviors=("click",), target="click"),
                             tiny_dataset.num_items)
        with pytest.raises(ValueError, match="schema"):
            RecommenderService(artifact, other)

    def test_stats_shape(self, service, tiny_dataset):
        import json
        service.recommend(tiny_dataset.users[0], k=3)
        stats = service.stats()
        json.dumps(stats)
        assert stats["requests"] == 1
        assert stats["index"] == {
            "backend": "exact",
            "num_items": tiny_dataset.num_items,
            "resident_bytes": service.index.vectors.nbytes,
        }
        assert set(stats["stages"]) == {"queue", "encode", "retrieve",
                                        "rank", "total"}
        assert "stage" in service.report()

    def test_cold_start_user_served_after_append(self, service, tiny_dataset):
        newcomer = max(tiny_dataset.users) + 1
        with pytest.raises(KeyError):
            service.recommend(newcomer)
        service.append_event(newcomer, 1, tiny_dataset.schema.behaviors[0])
        recs = service.recommend(newcomer, k=5)
        assert recs and all(r.item != 1 for r in recs)
