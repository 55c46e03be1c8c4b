"""The synchronous in-process serving facade.

:class:`RecommenderService` wires the serving subsystem together: a frozen
:class:`~repro.serve.artifact.InferenceArtifact`, its NumPy encoder, a
retrieval index (exact or IVF), a versioned
:class:`~repro.serve.history.HistoryStore`, the TTL + LRU interest cache,
the micro-batching engine and always-on serving metrics.

Request path: ``recommend(user, k)`` enqueues into the micro-batcher; the
worker takes whatever is queued, encodes those users as one batch (cache
misses only), queries the index with each user's K interest vectors (seen
items excluded; the exact index scores the whole batch in blocked GEMMs),
and returns ranked :class:`~repro.recommend.Recommendation` lists.
Per-stage latencies, QPS, cache hit rate and (for IVF) sampled
recall-vs-exact land in :meth:`stats`.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

import numpy as np

from repro.data.batching import collate
from repro.obs import span
from repro.obs.metrics import MetricsRegistry
from repro.recommend import Recommendation

from .artifact import InferenceArtifact
from .batcher import MicroBatcher
from .cache import InterestCache
from .encoder import build_encoder
from .history import HistoryStore
from .index import ExactIndex, build_index, topk_overlap
from .metrics import ServingMetrics

__all__ = ["RecommenderService"]


class RecommenderService:
    """Online multi-interest recommender over a frozen artifact.

    Args:
        artifact: the exported model snapshot.
        history: user histories (seed with ``HistoryStore.from_dataset``).
        index_backend: ``"exact"`` (parity with offline scoring) or
            ``"ivf"`` (approximate, faster on large catalogs).
        index_options: extra kwargs for the IVF constructor (e.g. ``nlist``
            and ``nprobe``).
        max_batch: the most requests one micro-batch carries.
        cache_capacity / cache_ttl_seconds: interest-cache bounds.
        max_len: history truncation at encode time (matches the offline
            ``recommend`` default).
        exclude_seen: mask items the user already interacted with.
        recall_probe_every: with the IVF backend, every N-th request
            is shadow-scored on an exact index and the top-k overlap recorded
            as recall (0 disables probing).
        clock: monotonic time source (injectable for tests).
        registry: metrics registry handed to :class:`ServingMetrics`
            (default: a private registry; pass the process-wide one to
            publish into the shared telemetry namespace).
    """

    def __init__(self, artifact: InferenceArtifact, history: HistoryStore,
                 index_backend: str = "exact",
                 index_options: dict | None = None,
                 max_batch: int = 32,
                 cache_capacity: int = 4096, cache_ttl_seconds: float = 300.0,
                 max_len: int = 50, exclude_seen: bool = True,
                 recall_probe_every: int = 0,
                 clock: Callable[[], float] = time.monotonic,
                 registry: MetricsRegistry | None = None):
        self.artifact = artifact
        self.history = history
        if tuple(history.schema.behaviors) != tuple(artifact.behaviors):
            raise ValueError(
                f"history schema {history.schema.behaviors} does not match "
                f"artifact schema {artifact.behaviors}")
        self.encoder = build_encoder(artifact)
        self.max_len = max_len
        self.exclude_seen = exclude_seen
        self._clock = clock
        self.metrics = ServingMetrics(clock, registry=registry)
        self.cache = InterestCache(capacity=cache_capacity,
                                   ttl_seconds=cache_ttl_seconds, clock=clock)
        self.index = build_index(artifact.item_vectors(), index_backend,
                                 score_mode=self.encoder.score_mode,
                                 score_pow=self.encoder.score_pow,
                                 **(index_options or {}))
        self.recall_probe_every = int(recall_probe_every)
        self._reference_index: ExactIndex | None = None
        if self.index.backend != "exact" and self.recall_probe_every > 0:
            self._reference_index = ExactIndex(
                artifact.item_vectors(), score_mode=self.encoder.score_mode,
                score_pow=self.encoder.score_pow)
        self.claim_wait_seconds = 5.0
        self._served = 0
        self._batcher = MicroBatcher(self._process_batch, max_batch=max_batch,
                                     clock=clock,
                                     on_flush=self.metrics.record_batch)

    # ------------------------------------------------------------------
    # request surface
    # ------------------------------------------------------------------
    def recommend(self, user: int, k: int = 10) -> list[Recommendation]:
        """Top-``k`` novel items for one user (micro-batched under load)."""
        if k < 1:
            self.metrics.record_error()
            raise ValueError("k must be positive")
        if not self.history.has_user(user):
            self.metrics.record_error()
            raise KeyError(f"user {user} not in the history store")
        started = self._clock()
        with span("serve.request", user=user, k=k):
            try:
                result = self._batcher.submit((user, k))
            except BaseException:
                self.metrics.record_error()
                raise
        self.metrics.record_request(self._clock() - started)
        return result

    def recommend_many(self, users: Sequence[int], k: int = 10
                       ) -> dict[int, list[Recommendation]]:
        """One explicit batch (bypasses the queue; shares all other stages)."""
        if k < 1:
            raise ValueError("k must be positive")
        for user in users:
            if not self.history.has_user(user):
                raise KeyError(f"user {user} not in the history store")
        started = self._clock()
        results = self._process_batch([(user, k) for user in users])
        elapsed = self._clock() - started
        self.metrics.record_batch(len(users), [0.0] * len(users))
        for _ in users:
            self.metrics.record_request(elapsed)
        return dict(zip(users, results))

    def append_event(self, user: int, item: int, behavior: str,
                     timestamp: int | None = None) -> int:
        """Record a new interaction and invalidate the user's cached
        interests; returns the new history version."""
        version = self.history.append(user, item, behavior, timestamp)
        self.cache.invalidate(user)
        return version

    # ------------------------------------------------------------------
    # engine
    # ------------------------------------------------------------------
    def _encode_users(self, users: Sequence[int]) -> np.ndarray:
        """One collated encode of ``users``; returns ``(len(users), K, D)``."""
        examples = [self.history.example(user, self.max_len)
                    for user in users]
        batch = collate(examples, self.history.schema)
        return self.encoder.interests(batch)

    def _interests_for(self, users: Sequence[int]) -> dict[int, np.ndarray]:
        """Per-user ``(K, D)`` interest vectors, cache-first with single-flight.

        Cache misses this call owns (first claimant for the ``(user,
        version)`` key) are encoded as one collated batch; misses another
        thread is already encoding are *waited on* instead of re-encoded —
        the suppressed duplicate work lands on the
        ``serve.cache.stampede_suppressed`` counter.  If an owner abandons
        (encode failure) or the fulfilled entry expires before we read it,
        we fall back to encoding those users ourselves.
        """
        unique = list(dict.fromkeys(users))
        versions = {user: self.history.version(user) for user in unique}
        interests: dict[int, np.ndarray] = {}
        owned: list[int] = []
        waits: list[tuple[int, object]] = []
        for user in unique:
            cached = self.cache.get(user, versions[user])
            self.metrics.record_cache(cached is not None)
            if cached is not None:
                interests[user] = cached
                continue
            event = self.cache.claim(user, versions[user])
            if event is None:
                owned.append(user)
            else:
                self.metrics.record_stampede_suppressed()
                waits.append((user, event))
        if owned:
            try:
                encoded = self._encode_users(owned)
            except BaseException:
                for user in owned:
                    self.cache.abandon(user, versions[user])
                raise
            for row, user in enumerate(owned):
                vectors = encoded[row]
                self.cache.fulfill(user, versions[user], vectors)
                interests[user] = vectors
        stragglers: list[int] = []
        for user, event in waits:
            event.wait(timeout=self.claim_wait_seconds)
            cached = self.cache.get(user, versions[user])
            if cached is None:
                stragglers.append(user)
            else:
                interests[user] = cached
        if stragglers:
            encoded = self._encode_users(stragglers)
            for row, user in enumerate(stragglers):
                vectors = encoded[row]
                self.cache.put(user, versions[user], vectors)
                interests[user] = vectors
        return interests

    def _search(self, interests: dict[int, np.ndarray],
                payloads: Sequence[tuple[int, int]], excludes: list) -> list:
        """One index result per payload: a single blocked search on the
        exact index, one ``search`` per user on IVF."""
        if isinstance(self.index, ExactIndex):
            return self.index.search_many(
                np.stack([interests[user] for user, _ in payloads]),
                [k for _, k in payloads], excludes)
        return [self.index.search(interests[user], k, exclude=exclude)
                for (user, k), exclude in zip(payloads, excludes)]

    def _process_batch(self, payloads: Sequence[tuple[int, int]]
                       ) -> list[list[Recommendation]]:
        with span("serve.batch", size=len(payloads)):
            started = self._clock()
            with span("serve.encode", users=len(set(u for u, _ in payloads))):
                interests = self._interests_for([user for user, _ in payloads])
            self.metrics.record_stage("encode", self._clock() - started)
            results: list[list[Recommendation]] = []
            with span("serve.retrieve_rank"):
                excludes = [self.history.seen(user) if self.exclude_seen
                            else None for user, _ in payloads]
                retrieve_start = self._clock()
                found_all = self._search(interests, payloads, excludes)
                self.metrics.record_stage("retrieve",
                                          self._clock() - retrieve_start)
                for (user, k), exclude, found in zip(payloads, excludes,
                                                     found_all):
                    rank_start = self._clock()
                    self.metrics.record_search(found)
                    results.append([
                        Recommendation(item=int(item), score=float(score),
                                       rank=rank)
                        for rank, (item, score) in enumerate(zip(found.items,
                                                                 found.scores))
                    ])
                    self._served += 1
                    if (self._reference_index is not None
                            and self._served % self.recall_probe_every == 0):
                        reference = self._reference_index.search(
                            interests[user], k, exclude=exclude)
                        self.metrics.record_recall(
                            topk_overlap(found.items, reference.items))
                    self.metrics.record_stage("rank",
                                              self._clock() - rank_start)
            return results

    # ------------------------------------------------------------------
    # observability & lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-serializable snapshot of every serving counter."""
        snapshot = self.metrics.snapshot()
        snapshot["cache"]["size"] = len(self.cache)
        snapshot["cache"]["evictions"] = self.cache.evictions
        snapshot["cache"]["expirations"] = self.cache.expirations
        index_info = {"backend": self.index.backend,
                      "num_items": self.index.num_items,
                      "resident_bytes": int(self.index.resident_bytes())}
        if self.index.backend == "ivf":
            index_info["nlist"] = self.index.nlist
            index_info["nprobe"] = self.index.nprobe
            index_info["auto_calibrated"] = self.index.auto_calibrated
            if self.index.calibration is not None:
                index_info["calibration"] = self.index.calibration
        snapshot["index"] = index_info
        return snapshot

    def report(self) -> str:
        """Human-readable metrics table (profiler style)."""
        return self.metrics.report()

    def close(self) -> None:
        """Stop the micro-batching worker (idempotent)."""
        self._batcher.close()

    def __enter__(self) -> "RecommenderService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
