"""Multi-interest item retrieval indexes.

A retrieval index answers "given a user's K interest vectors, which items
score highest?" without the caller touching the full catalog.  Three
backends:

* :class:`ExactIndex` — brute-force matmul over the whole item block, one
  GEMM per block of users.  Its results are *identical* to offline
  full-catalog scoring (same readout, same float64 scores, same
  :func:`repro.recommend.top_k` order), which makes it both the correctness
  baseline and the recall reference for approximate backends.
* :class:`IVFIndex` — an inverted-file (coarse-quantized) index: items are
  partitioned by a seeded NumPy k-means; each interest vector probes its
  ``nprobe`` closest partitions and the per-interest candidate sets are
  merged before exact re-scoring.  Classic ComiRec-style serving: K queries
  against an ANN structure, merge, rank.
* :class:`HNSWIndex` — a layered navigable-small-world proximity graph built
  with seeded level draws.  Each interest vector descends from the top-layer
  entry point and runs an ``ef_search``-wide beam over the bottom layer; the
  union of beam candidates across interests is re-scored exactly, so recall
  is tuned by one knob without touching the ranking math.  This is the
  second-generation index: where IVF's recall plateaus against its partition
  boundaries, widening ``ef_search`` walks the graph past them (the
  recall-vs-p99 Pareto in BENCH_P7).

Scores use the same multi-interest readout as the model (``max`` or
label-aware ``softmax``), so a candidate's index score equals its model
score.  All approximate backends apply seen-item exclusion *after* exact
re-scoring, mirroring the offline path, and every backend ranks through
:func:`repro.recommend.top_k`: score descending, ties to the lower item id.
"""

from __future__ import annotations

import heapq
import threading

import numpy as np

from repro.recommend import top_k

from .ops import interest_readout

__all__ = ["ExactIndex", "IVFIndex", "HNSWIndex", "build_index",
           "load_index_state", "SearchResult", "topk_overlap",
           "INDEX_RUNTIME_OPTIONS", "SERIALIZABLE_BACKENDS"]

# Search-time knobs that can be re-applied to a deserialized index without
# rebuilding it (everything else — partition counts, graph degrees, code
# sizes — is baked into the serialized structure).
INDEX_RUNTIME_OPTIONS = frozenset({"nprobe", "ef_search", "refine"})

# Backends whose built structure can be serialized into an artifact bundle
# and re-attached in O(mmap) (``exact`` has no structure worth shipping).
SERIALIZABLE_BACKENDS = ("ivf", "hnsw", "pq", "ivf_pq", "exact_sq")

# Users per GEMM in ExactIndex.search_many.  A block of 8 users keeps the
# float32 (8·K, N) product and its float64 copy to ~2 MB at a 9k-item
# catalog, and every row of the blocked product equals the one-user product
# bit for bit, so a user's result does not depend on its batch.
_SEARCH_BLOCK = 8


class SearchResult:
    """Top-k result of one index query: parallel ``items`` / ``scores``
    arrays (best first) plus the number of candidates actually scored.
    Quantized backends additionally report their scan/refine split
    (``scan_seconds`` / ``refine_seconds`` / ``refined``); other backends
    leave those at zero."""

    __slots__ = ("items", "scores", "candidates_scored", "scan_seconds",
                 "refine_seconds", "refined")

    def __init__(self, items: np.ndarray, scores: np.ndarray,
                 candidates_scored: int, scan_seconds: float = 0.0,
                 refine_seconds: float = 0.0, refined: int = 0):
        self.items = items
        self.scores = scores
        self.candidates_scored = candidates_scored
        self.scan_seconds = scan_seconds
        self.refine_seconds = refine_seconds
        self.refined = refined

    def __len__(self) -> int:
        return len(self.items)


class _ScratchBuffers:
    """Thread-local reusable arrays for the per-call score vectors.

    Every ``search`` used to allocate a fresh ``(N,)`` float64 buffer
    (``astype(copy=True)`` on the exact path, ``np.full(-inf)`` on the
    approximate ones).  Shapes repeat across a micro-batch — one buffer per
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
            candidates_scored: int, scan_seconds: float = 0.0,
            refine_seconds: float = 0.0, refined: int = 0) -> SearchResult:
    """The :func:`~repro.recommend.top_k` of ``scores`` as a result."""
    order = top_k(scores, k)
    # Fancy indexing copies, so the result does not alias scratch buffers.
    return SearchResult(items[order], scores[order], candidates_scored,
                        scan_seconds, refine_seconds, refined)


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

    # -- serialization ----------------------------------------------------
    def state(self) -> tuple[dict, dict]:
        """``(meta, arrays)`` capturing the built structure (not the item
        block, which lives in the artifact)."""
        sizes = np.fromiter((len(rows) for rows in self.lists), dtype=np.int64,
                            count=self.nlist)
        list_rows = np.concatenate(self.lists) if self.num_items else \
            np.empty(0, dtype=np.int64)
        meta = {"backend": self.backend, "nlist": int(self.nlist),
                "nprobe": int(self.nprobe),
                "auto_calibrated": bool(self.auto_calibrated),
                "calibration": self.calibration,
                "score_mode": self.score_mode,
                "score_pow": float(self.score_pow)}
        return meta, {"centroids": self.centroids, "list_rows": list_rows,
                      "list_sizes": sizes}

    @classmethod
    def from_state(cls, item_vectors: np.ndarray, meta: dict, arrays: dict,
                   score_mode: str = "max",
                   score_pow: float = 1.0) -> "IVFIndex":
        """Re-attach a serialized index in O(mmap) — no k-means re-run."""
        index = cls.__new__(cls)
        index.vectors = np.ascontiguousarray(item_vectors)
        index.num_items = int(index.vectors.shape[0])
        index.score_mode = score_mode
        index.score_pow = score_pow
        index.nlist = int(meta["nlist"])
        index.nprobe = int(meta["nprobe"])
        index.auto_calibrated = bool(meta.get("auto_calibrated", False))
        index.calibration = meta.get("calibration")
        index.centroids = np.asarray(arrays["centroids"])
        sizes = np.asarray(arrays["list_sizes"], dtype=np.int64)
        rows = np.asarray(arrays["list_rows"], dtype=np.int64)
        bounds = np.cumsum(sizes)[:-1]
        index.lists = np.split(rows, bounds)
        return index


class HNSWIndex:
    """Hierarchical navigable-small-world graph index (seeded, NumPy-only).

    Construction follows the classic HNSW recipe: every item draws a level
    from a seeded geometric distribution (expected layer population shrinks
    by ``1/M`` per layer); items insert one at a time by greedy descent from
    the entry point through the upper layers, then an ``ef_construction``-wide
    beam on each layer at or below their level picks the ``M`` most similar
    neighbors, with reciprocal links pruned back to the per-layer degree cap.
    Similarity is the inner product — the same quantity the readout scores —
    so graph neighborhoods agree with what retrieval actually ranks.

    Search runs one descent *per interest vector* (each interest lands in its
    own region of the item space) and an ``ef_search``-wide bottom-layer
    beam; the union of beam candidates across interests is re-scored exactly
    with the model readout in float64, exclusions applied after re-scoring —
    identical post-processing to :class:`IVFIndex`, so the only approximation
    is which candidates the graph surfaces.

    Args:
        item_vectors: ``(N, D)`` catalog block, row ``i`` = item ``i + 1``.
        M: neighbors kept per node per layer (bottom layer keeps ``2 * M``).
        ef_construction: beam width while inserting (build quality).
        ef_search: beam width while querying — *the* recall/latency knob;
            raise it to walk more of the graph per interest.
        score_mode / score_pow: multi-interest readout, as in the model.
        seed: level-draw seed (construction is deterministic given it).
    """

    backend = "hnsw"

    def __init__(self, item_vectors: np.ndarray, M: int = 8,
                 ef_construction: int = 64, ef_search: int = 48,
                 score_mode: str = "max", score_pow: float = 1.0,
                 seed: int = 0):
        self.vectors = np.ascontiguousarray(item_vectors)
        self.num_items = int(self.vectors.shape[0])
        if self.num_items < 1:
            raise ValueError("cannot index an empty catalog")
        self.score_mode = score_mode
        self.score_pow = score_pow
        self.M = max(2, int(M))
        self.ef_construction = max(int(ef_construction), self.M + 1)
        self.ef_search = max(1, int(ef_search))
        rng = np.random.default_rng(seed)
        level_mult = 1.0 / np.log(self.M)
        draws = np.maximum(rng.random(self.num_items), 1e-12)
        self._levels = np.floor(-np.log(draws) * level_mult).astype(np.int64)
        layers = int(self._levels.max()) + 1
        # Per layer: node -> neighbor list (python lists; degree-capped).
        self._graph: list[dict[int, list[int]]] = [{} for _ in range(layers)]
        self._entry = 0
        self.max_level = 0
        for node in range(self.num_items):
            self._insert(node)

    # -- construction -----------------------------------------------------
    def _search_layer(self, query: np.ndarray, entries: list[int], ef: int,
                      layer: int) -> list[tuple[float, int]]:
        """Beam search on one layer: best-first over inner-product similarity.

        Returns up to ``ef`` ``(similarity, node)`` pairs (a min-heap list,
        not sorted).  Ties break on node id, keeping traversal deterministic.
        """
        adjacency = self._graph[layer]
        visited = set(entries)
        results: list[tuple[float, int]] = []
        candidates: list[tuple[float, int]] = []
        for node in entries:
            sim = float(query @ self.vectors[node])
            heapq.heappush(results, (sim, node))
            heapq.heappush(candidates, (-sim, node))
        while len(results) > ef:
            heapq.heappop(results)
        while candidates:
            negative, node = heapq.heappop(candidates)
            if len(results) >= ef and -negative < results[0][0]:
                break
            fresh = [n for n in adjacency.get(node, ()) if n not in visited]
            if not fresh:
                continue
            visited.update(fresh)
            sims = self.vectors[fresh] @ query
            for neighbor, sim in zip(fresh, sims):
                sim = float(sim)
                if len(results) < ef or sim > results[0][0]:
                    heapq.heappush(results, (sim, neighbor))
                    if len(results) > ef:
                        heapq.heappop(results)
                    heapq.heappush(candidates, (-sim, neighbor))
        return results

    def _greedy_descent(self, query: np.ndarray, stop_layer: int) -> list[int]:
        """Entry point refined layer by layer down to ``stop_layer + 1``."""
        entry = [self._entry]
        for layer in range(self.max_level, stop_layer, -1):
            found = self._search_layer(query, entry, 1, layer)
            entry = [max(found)[1]]
        return entry

    def _insert(self, node: int) -> None:
        level = int(self._levels[node])
        vector = self.vectors[node]
        if not self._graph[0]:                       # very first node
            for layer in range(level + 1):
                self._graph[layer][node] = []
            self.max_level = level
            self._entry = node
            return
        entry = self._greedy_descent(vector, level)
        for layer in range(min(level, self.max_level), -1, -1):
            found = self._search_layer(vector, entry, self.ef_construction,
                                       layer)
            cap = 2 * self.M if layer == 0 else self.M
            best = sorted(found, reverse=True)[:self.M]
            self._graph[layer][node] = [n for _, n in best]
            for _, neighbor in best:
                links = self._graph[layer][neighbor]
                links.append(node)
                if len(links) > cap:
                    sims = self.vectors[links] @ self.vectors[neighbor]
                    order = np.argsort(-sims, kind="stable")[:cap]
                    self._graph[layer][neighbor] = [links[i] for i in order]
            entry = [n for _, n in found]
        if level > self.max_level:
            for layer in range(self.max_level + 1, level + 1):
                self._graph[layer][node] = []
            self.max_level = level
            self._entry = node

    # -- querying ---------------------------------------------------------
    def _candidate_rows(self, queries: np.ndarray,
                        ef_search: int | None = None) -> np.ndarray:
        """Union of bottom-layer beam candidates over every interest."""
        ef = self.ef_search if ef_search is None else max(1, int(ef_search))
        rows: set[int] = set()
        for query in queries:
            entry = self._greedy_descent(query, 0)
            found = self._search_layer(query, entry, ef, 0)
            rows.update(node for _, node in found)
        return np.fromiter(sorted(rows), dtype=np.int64, count=len(rows))

    def search(self, interests: np.ndarray, k: int, exclude=None,
               ef_search: int | None = None) -> SearchResult:
        """Approximate top-``k``: per-interest graph beams, union, exact
        re-score, rank.  ``ef_search`` overrides the constructor knob."""
        if k < 1:
            raise ValueError("k must be positive")
        queries = _as_queries(interests)
        rows = self._candidate_rows(queries, ef_search)
        per_interest = queries @ self.vectors[rows].T            # (K, M)
        combined = interest_readout(per_interest, self.score_mode,
                                    self.score_pow)
        scores = scratch.filled((self.num_items,), np.float64, -np.inf)
        scores[rows] = combined
        scores = _apply_exclusions(scores, exclude)
        items = np.arange(1, self.num_items + 1, dtype=np.int64)
        return _ranked(items, scores, k, len(rows))

    def resident_bytes(self) -> int:
        """Bytes hot at search time: item block + levels + adjacency (links
        counted at int64 width; the in-memory python lists cost more)."""
        links = sum(len(neighbors) for layer in self._graph
                    for neighbors in layer.values())
        return int(self.vectors.nbytes + self._levels.nbytes + 8 * links)

    # -- serialization ----------------------------------------------------
    def state(self) -> tuple[dict, dict]:
        """``(meta, arrays)``: levels plus one CSR (nodes/indptr/indices)
        per layer — everything ``from_state`` needs to skip re-insertion."""
        meta = {"backend": self.backend, "M": int(self.M),
                "ef_construction": int(self.ef_construction),
                "ef_search": int(self.ef_search),
                "max_level": int(self.max_level), "entry": int(self._entry),
                "layers": len(self._graph),
                "score_mode": self.score_mode,
                "score_pow": float(self.score_pow)}
        arrays = {"levels": self._levels}
        for layer, adjacency in enumerate(self._graph):
            nodes = np.fromiter(adjacency.keys(), dtype=np.int64,
                                count=len(adjacency))
            sizes = np.fromiter((len(adjacency[int(n)]) for n in nodes),
                                dtype=np.int64, count=len(nodes))
            indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
            np.cumsum(sizes, out=indptr[1:])
            indices = np.fromiter(
                (n for node in nodes for n in adjacency[int(node)]),
                dtype=np.int64, count=int(indptr[-1]))
            arrays[f"layer{layer}_nodes"] = nodes
            arrays[f"layer{layer}_indptr"] = indptr
            arrays[f"layer{layer}_indices"] = indices
        return meta, arrays

    @classmethod
    def from_state(cls, item_vectors: np.ndarray, meta: dict, arrays: dict,
                   score_mode: str = "max",
                   score_pow: float = 1.0) -> "HNSWIndex":
        """Re-attach a serialized graph in O(links) — no insertion pass."""
        index = cls.__new__(cls)
        index.vectors = np.ascontiguousarray(item_vectors)
        index.num_items = int(index.vectors.shape[0])
        index.score_mode = score_mode
        index.score_pow = score_pow
        index.M = int(meta["M"])
        index.ef_construction = int(meta["ef_construction"])
        index.ef_search = int(meta["ef_search"])
        index.max_level = int(meta["max_level"])
        index._entry = int(meta["entry"])
        index._levels = np.asarray(arrays["levels"], dtype=np.int64)
        index._graph = []
        for layer in range(int(meta["layers"])):
            nodes = np.asarray(arrays[f"layer{layer}_nodes"], dtype=np.int64)
            indptr = np.asarray(arrays[f"layer{layer}_indptr"],
                                dtype=np.int64)
            indices = np.asarray(arrays[f"layer{layer}_indices"],
                                 dtype=np.int64)
            adjacency = {
                int(node): indices[indptr[i]:indptr[i + 1]].tolist()
                for i, node in enumerate(nodes)}
            index._graph.append(adjacency)
        return index


def topk_overlap(approx_items: np.ndarray, exact_items: np.ndarray) -> float:
    """Recall@k of an approximate result against the exact reference:
    ``|approx ∩ exact| / |exact|`` (1.0 when the reference is empty)."""
    if len(exact_items) == 0:
        return 1.0
    return len(np.intersect1d(approx_items, exact_items)) / len(exact_items)


def build_index(item_vectors: np.ndarray, backend: str = "exact",
                score_mode: str = "max", score_pow: float = 1.0, **kwargs):
    """Construct a retrieval index: ``backend`` is ``"exact"``, ``"ivf"``,
    ``"hnsw"``, or one of the quantized backends ``"pq"``, ``"ivf_pq"``,
    ``"exact_sq"`` (see :mod:`repro.serve.quant`)."""
    if backend == "exact":
        return ExactIndex(item_vectors, score_mode=score_mode,
                          score_pow=score_pow)
    if backend == "ivf":
        return IVFIndex(item_vectors, score_mode=score_mode,
                        score_pow=score_pow, **kwargs)
    if backend == "hnsw":
        return HNSWIndex(item_vectors, score_mode=score_mode,
                         score_pow=score_pow, **kwargs)
    if backend in ("pq", "ivf_pq", "exact_sq"):
        from .quant import build_quant_index       # lazy: quant imports us
        return build_quant_index(item_vectors, backend, score_mode=score_mode,
                                 score_pow=score_pow, **kwargs)
    raise ValueError(f"unknown index backend {backend!r}; choose 'exact', "
                     f"'ivf', 'hnsw', 'pq', 'ivf_pq' or 'exact_sq'")


def load_index_state(item_vectors: np.ndarray, meta: dict, arrays: dict,
                     score_mode: str = "max", score_pow: float = 1.0,
                     options: dict | None = None):
    """Reconstruct a serialized index (``state()`` output) in O(attach).

    ``options`` may carry :data:`INDEX_RUNTIME_OPTIONS` knobs (``nprobe``,
    ``ef_search``, ``refine``) to re-tune the deserialized index without a
    rebuild; unknown keys raise so a structural option (``nlist``, ``M``,
    ``m``…) is never silently ignored against a prebuilt structure.
    """
    backend = meta.get("backend")
    if backend == "ivf":
        index = IVFIndex.from_state(item_vectors, meta, arrays,
                                    score_mode=score_mode,
                                    score_pow=score_pow)
    elif backend == "hnsw":
        index = HNSWIndex.from_state(item_vectors, meta, arrays,
                                     score_mode=score_mode,
                                     score_pow=score_pow)
    elif backend in ("pq", "ivf_pq", "exact_sq"):
        from .quant import load_quant_state        # lazy: quant imports us
        index = load_quant_state(item_vectors, meta, arrays,
                                 score_mode=score_mode, score_pow=score_pow)
    else:
        raise ValueError(f"cannot deserialize index backend {backend!r}; "
                         f"serializable backends: {SERIALIZABLE_BACKENDS}")
    for name, value in (options or {}).items():
        if name not in INDEX_RUNTIME_OPTIONS or not hasattr(index, name):
            raise ValueError(
                f"option {name!r} cannot be applied to a prebuilt "
                f"{backend!r} index; rebuild with build_index() instead")
        setattr(index, name, value)
    return index
