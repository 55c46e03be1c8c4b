"""Multi-interest item retrieval indexes.

A retrieval index answers "given a user's K interest vectors, which items
score highest?" without the caller touching the full catalog.  Two
backends:

* :class:`ExactIndex` — brute-force matmul over the whole item block, one
  GEMM per block of users.  Its results are *identical* to offline
  full-catalog scoring (same readout, same float64 scores, same
  :func:`repro.recommend.top_k` order), which makes it both the correctness
  baseline and the recall reference for the approximate backend.
* :class:`IVFIndex` — an inverted-file (coarse-quantized) index: items are
  partitioned by a seeded NumPy k-means; each interest vector probes its
  ``nprobe`` closest partitions and the per-interest candidate sets are
  merged before exact re-scoring.  Classic ComiRec-style serving: K queries
  against an ANN structure, merge, rank.  It is the one approximate backend
  on the recall@10/p99 frontier (BENCH_P10): at 10^5 items it reaches
  recall@10 0.95 at a fraction of exact's p99.

Scores use the same multi-interest readout as the model (``max`` or
label-aware ``softmax``), so a candidate's index score equals its model
score.  IVF applies seen-item exclusion *after* exact re-scoring, mirroring
the offline path, and both backends rank through
:func:`repro.recommend.top_k`: score descending, ties to the lower item id.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.recommend import top_k

from .ops import interest_readout

__all__ = ["ExactIndex", "IVFIndex", "build_index", "SearchResult",
           "topk_overlap"]

# Users per GEMM in ExactIndex.search_many.  A block of 8 users keeps the
# float32 (8·K, N) product and its float64 copy to ~2 MB at a 9k-item
# catalog, and every row of the blocked product equals the one-user product
# bit for bit, so a user's result does not depend on its batch.
_SEARCH_BLOCK = 8


class SearchResult:
    """Top-k result of one index query: parallel ``items`` / ``scores``
    arrays (best first) plus the number of candidates actually scored."""

    __slots__ = ("items", "scores", "candidates_scored")

    def __init__(self, items: np.ndarray, scores: np.ndarray,
                 candidates_scored: int):
        self.items = items
        self.scores = scores
        self.candidates_scored = candidates_scored

    def __len__(self) -> int:
        return len(self.items)


class _ScratchBuffers:
    """Thread-local reusable arrays for the per-call score vectors.

    Every ``search`` used to allocate a fresh ``(N,)`` float64 buffer
    (``astype(copy=True)`` on the exact path, ``np.full(-inf)`` on the IVF
    one).  Shapes repeat across a micro-batch — one buffer per
    ``(shape, dtype)`` per thread covers the whole batch without churn.
    Returned arrays alias the pool: callers must copy out anything that
    outlives the call (the fancy-indexed top-k slices the searches return
    already do).
    """

    def __init__(self):
        self._local = threading.local()

    def take(self, shape, dtype) -> np.ndarray:
        pool = getattr(self._local, "pool", None)
        if pool is None:
            pool = self._local.pool = {}
        key = (tuple(shape), np.dtype(dtype).str)
        array = pool.get(key)
        if array is None:
            array = pool[key] = np.empty(shape, dtype=dtype)
        return array

    def filled(self, shape, dtype, value) -> np.ndarray:
        array = self.take(shape, dtype)
        array.fill(value)
        return array


scratch = _ScratchBuffers()


def _as_queries(interests: np.ndarray) -> np.ndarray:
    queries = np.asarray(interests)
    if queries.ndim == 1:
        queries = queries[None, :]
    if queries.ndim != 2:
        raise ValueError(f"expected (K, D) interest queries, got shape "
                         f"{queries.shape}")
    return queries


def _apply_exclusions(scores: np.ndarray, exclude) -> np.ndarray:
    if exclude:
        scores[np.fromiter(exclude, dtype=np.int64) - 1] = -np.inf
    return scores


def _ranked(items: np.ndarray, scores: np.ndarray, k: int,
            candidates_scored: int) -> SearchResult:
    """The :func:`~repro.recommend.top_k` of ``scores`` as a result."""
    order = top_k(scores, k)
    # Fancy indexing copies, so the result does not alias scratch buffers.
    return SearchResult(items[order], scores[order], candidates_scored)


class ExactIndex:
    """Brute-force index over the ``(N, D)`` item block (row ``i`` = item
    ``i + 1``).

    Scores are promoted to float64 and ranked with
    :func:`~repro.recommend.top_k`, the selection
    :func:`repro.recommend.recommend_batch` performs, so served
    exact-backend top-k lists are interchangeable with offline ones.
    :meth:`search_many` scores a batch of users with one GEMM per block of
    :data:`_SEARCH_BLOCK` users; :meth:`search` is its batch of one.
    """

    backend = "exact"

    def __init__(self, item_vectors: np.ndarray, score_mode: str = "max",
                 score_pow: float = 1.0):
        self.vectors = np.ascontiguousarray(item_vectors)
        self.num_items = int(self.vectors.shape[0])
        self.score_mode = score_mode
        self.score_pow = score_pow
        self.items = np.arange(1, self.num_items + 1, dtype=np.int64)

    def resident_bytes(self) -> int:
        """Bytes that must stay hot for scanning (the full item block)."""
        return int(self.vectors.nbytes)

    def search(self, interests: np.ndarray, k: int,
               exclude=None) -> SearchResult:
        """Exact top-``k``; ``exclude`` item ids are masked to ``-inf``."""
        return self.search_many(_as_queries(interests)[None], [k],
                                [exclude])[0]

    def search_many(self, interests: np.ndarray, ks, excludes
                    ) -> list[SearchResult]:
        """Exact top-``ks[u]`` for each user ``u`` of a ``(B, K, D)`` stack
        of interests, masking the item ids in ``excludes[u]`` (or nothing,
        for ``None``)."""
        interests = np.asarray(interests)
        if interests.ndim != 3:
            raise ValueError(f"expected (B, K, D) interest queries, got "
                             f"shape {interests.shape}")
        if min(ks, default=1) < 1:
            raise ValueError("k must be positive")
        num_users, num_interests, dim = interests.shape
        results = []
        for start in range(0, num_users, _SEARCH_BLOCK):
            block = interests[start:start + _SEARCH_BLOCK]
            rows = len(block)
            per_interest = block.reshape(rows * num_interests, dim) \
                @ self.vectors.T                                # (b·K, N)
            combined = interest_readout(
                per_interest.reshape(rows, num_interests, self.num_items),
                self.score_mode, self.score_pow)
            scores = scratch.take((rows, self.num_items), np.float64)
            np.copyto(scores, combined, casting="safe")
            for user, row_scores in zip(range(start, start + rows), scores):
                row_scores = _apply_exclusions(row_scores, excludes[user])
                results.append(_ranked(self.items, row_scores, ks[user],
                                       self.num_items))
        return results


def _kmeans(vectors: np.ndarray, num_clusters: int, iterations: int,
            rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Seeded Lloyd's k-means; empty clusters are reseeded from random rows."""
    n = vectors.shape[0]
    centroids = vectors[rng.choice(n, size=num_clusters, replace=False)].copy()
    assignment = np.zeros(n, dtype=np.int64)
    for _ in range(iterations):
        distances = ((vectors[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=-1) \
            if n * num_clusters * vectors.shape[1] < 2_000_000 else None
        if distances is None:
            # Large case: ||x - c||^2 = ||x||^2 - 2 x·c + ||c||^2 without the
            # (N, C, D) broadcast temporary.
            cross = vectors @ centroids.T
            distances = (vectors ** 2).sum(axis=1, keepdims=True) - 2.0 * cross \
                + (centroids ** 2).sum(axis=1)[None, :]
        assignment = distances.argmin(axis=1)
        for cluster in range(num_clusters):
            members = assignment == cluster
            if members.any():
                centroids[cluster] = vectors[members].mean(axis=0)
            else:
                centroids[cluster] = vectors[rng.integers(n)]
    return centroids, assignment


class IVFIndex:
    """Inverted-file index: coarse k-means partitions + per-interest probing.

    When ``nprobe`` is not given it is **auto-calibrated** at build time: a
    seeded sample of catalog vectors plays held-out queries, and the default
    becomes the smallest probe count whose probed partitions cover at least
    ``target_recall`` of each query's exact top-``calibration_k`` (the old
    shipped default, ``nlist // 4``, sat at recall@10 ≈ 0.65 in BENCH_P2).

    Args:
        item_vectors: ``(N, D)`` catalog block, row ``i`` = item ``i + 1``.
        nlist: number of partitions (default ``round(sqrt(N))``).
        nprobe: partitions each interest vector probes; higher = better
            recall, slower.  ``None`` (default) auto-calibrates as above.
        score_mode / score_pow: multi-interest readout, as in the model.
        seed: k-means initialization + calibration-sample seed.
        target_recall / calibration_queries / calibration_k: the coverage
            target and seeded sample used when ``nprobe`` is auto-calibrated.
    """

    backend = "ivf"

    def __init__(self, item_vectors: np.ndarray, nlist: int | None = None,
                 nprobe: int | None = None, score_mode: str = "max",
                 score_pow: float = 1.0, seed: int = 0,
                 kmeans_iterations: int = 8, target_recall: float = 0.9,
                 calibration_queries: int = 32, calibration_k: int = 10):
        self.vectors = np.ascontiguousarray(item_vectors)
        self.num_items = int(self.vectors.shape[0])
        self.score_mode = score_mode
        self.score_pow = score_pow
        if nlist is None:
            nlist = max(1, int(round(np.sqrt(self.num_items))))
        nlist = min(nlist, self.num_items)
        self.nlist = nlist
        rng = np.random.default_rng(seed)
        self.centroids, assignment = _kmeans(self.vectors, nlist,
                                             kmeans_iterations, rng)
        self.lists = [np.flatnonzero(assignment == c) for c in range(nlist)]
        if nprobe is None:
            self.nprobe, self.calibration = self._calibrate_nprobe(
                assignment, rng, target_recall, calibration_queries,
                calibration_k)
            self.auto_calibrated = True
        else:
            self.nprobe = max(1, min(int(nprobe), nlist))
            self.calibration = None
            self.auto_calibrated = False

    def _calibrate_nprobe(self, assignment: np.ndarray,
                          rng: np.random.Generator, target_recall: float,
                          num_queries: int, k: int) -> tuple[int, dict]:
        """Smallest ``nprobe`` whose probed partitions cover ``target_recall``
        of the exact top-``k`` on a seeded held-out query sample.

        O(Q·(N + C)): for each sampled query, every exact-top-``k`` item's
        partition is mapped (via the inverse permutation of the query's
        centroid-affinity order) to the probe depth at which it would be
        reached; coverage(nprobe) is then one cumulative histogram away.
        """
        sample = rng.choice(self.num_items,
                            size=min(num_queries, self.num_items),
                            replace=False)
        queries = self.vectors[sample]
        k = min(k, self.num_items)
        exact = queries @ self.vectors.T                          # (Q, N)
        top = np.argpartition(-exact, k - 1, axis=1)[:, :k]
        affinity = queries @ self.centroids.T                     # (Q, C)
        order = np.argsort(-affinity, axis=1, kind="stable")
        rank = np.empty_like(order)                               # inverse perm
        np.put_along_axis(
            rank, order,
            np.broadcast_to(np.arange(self.nlist, dtype=np.int64),
                            order.shape),
            axis=1)
        # Probe depth at which each exact-top item's partition is reached.
        needed = np.take_along_axis(rank, assignment[top], axis=1)
        coverage = np.bincount(needed.ravel() + 1,
                               minlength=self.nlist + 1).cumsum()
        coverage = coverage / needed.size
        target = min(float(target_recall), 1.0)
        hit = coverage >= target
        nprobe = int(np.argmax(hit)) if hit.any() else self.nlist
        nprobe = max(1, min(nprobe, self.nlist))
        return nprobe, {"target_recall": target,
                        "queries": int(len(sample)), "k": int(k),
                        "achieved_coverage": float(coverage[nprobe])}

    def _candidate_rows(self, queries: np.ndarray) -> np.ndarray:
        """Union of the item rows in every probed partition."""
        affinity = queries @ self.centroids.T                    # (K, C)
        probe_count = min(self.nprobe, self.nlist)
        probed = np.argpartition(-affinity, probe_count - 1,
                                 axis=1)[:, :probe_count]
        clusters = np.unique(probed)
        return np.concatenate([self.lists[c] for c in clusters]) \
            if len(clusters) else np.arange(self.num_items, dtype=np.int64)

    def search(self, interests: np.ndarray, k: int,
               exclude=None) -> SearchResult:
        """Approximate top-``k``: probe, merge per-interest candidates,
        re-score exactly, rank."""
        if k < 1:
            raise ValueError("k must be positive")
        queries = _as_queries(interests)
        rows = self._candidate_rows(queries)
        per_interest = queries @ self.vectors[rows].T            # (K, M)
        combined = interest_readout(per_interest, self.score_mode,
                                    self.score_pow)
        scores = scratch.filled((self.num_items,), np.float64, -np.inf)
        scores[rows] = combined
        scores = _apply_exclusions(scores, exclude)
        items = np.arange(1, self.num_items + 1, dtype=np.int64)
        return _ranked(items, scores, k, len(rows))

    def resident_bytes(self) -> int:
        """Bytes hot at scan time: item block + centroids + list rows."""
        return int(self.vectors.nbytes + self.centroids.nbytes
                   + sum(rows.nbytes for rows in self.lists))


def topk_overlap(approx_items: np.ndarray, exact_items: np.ndarray) -> float:
    """Recall@k of an approximate result against the exact reference:
    ``|approx ∩ exact| / |exact|`` (1.0 when the reference is empty)."""
    if len(exact_items) == 0:
        return 1.0
    return len(np.intersect1d(approx_items, exact_items)) / len(exact_items)


def build_index(item_vectors: np.ndarray, backend: str = "exact",
                score_mode: str = "max", score_pow: float = 1.0, **kwargs):
    """Construct a retrieval index: ``backend`` is ``"exact"`` or ``"ivf"``
    (``kwargs`` go to :class:`IVFIndex`)."""
    if backend == "exact":
        return ExactIndex(item_vectors, score_mode=score_mode,
                          score_pow=score_pow)
    if backend == "ivf":
        return IVFIndex(item_vectors, score_mode=score_mode,
                        score_pow=score_pow, **kwargs)
    raise ValueError(f"unknown index backend {backend!r}; choose 'exact' "
                     f"or 'ivf'")
