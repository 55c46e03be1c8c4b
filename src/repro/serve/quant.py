"""Quantized retrieval: PQ codebooks and int8 scalar-quantized item tables.

The approximate backends in :mod:`repro.serve.index` shrink *scan cost* but
every server still holds the full float32 item block.  This module shrinks
the *table itself* — the highest-leverage memory lever for the
industrial-scale catalogs MISSL's setting targets:

* :class:`ScalarQuantizer` / :class:`SQIndex` (backend ``exact_sq``) — int8
  codes with a per-dimension affine ``scale``/``offset``.  Exactly 4× smaller
  than float32, full-catalog scan, and the scan never decodes: the inner
  product decomposes as ``q·x ≈ (q*scale)·codes + q·offset``, so the int8
  block is streamed through a float32 scratch tile.
* :class:`ProductQuantizer` / :class:`PQIndex` (backend ``pq``) — seeded
  k-means codebooks over ``m`` subspaces, one uint8 code per subspace
  (``m`` bytes/item; 16× smaller at dim 32, ``m=8``).  Scoring is classic
  asymmetric-distance (ADC): per-query lookup tables
  (:func:`repro.serve.ops.pq_adc_scores`), one gather per subspace.
* :class:`IVFPQIndex` (backend ``ivf_pq``) — IVF coarse partitions pruning
  which rows get ADC-scanned.  Codes are built over the raw vectors, not
  residuals — a documented simplification; the refine step absorbs the
  accuracy gap.

All three expose the same ``search``/exclusion API as the float indexes and
support an optional **refine step**: the top ``refine`` scan candidates
(exclusions applied *before* selection, so excluded items never occupy
refine slots) are re-scored exactly in float64 — the same promotion
:class:`~repro.serve.index.ExactIndex` performs — which makes served==offline
top-k parity a chosen-depth knob rather than a casualty of quantization.
Dtype discipline is load-bearing here: scan paths stay in code dtypes and
float32 (the ``DTYPE-DISCIPLINE`` lint rule enforces it); float64 appears
only inside the refine step.

Each index keeps an *uncopied* reference to the full vector block purely for
refine — with a directory-format artifact (:mod:`repro.serve.artifact`) that
reference is a read-only memmap, so only the refined rows ever fault in and
``resident_bytes()`` (codes + codebooks + coarse structures) is an honest
account of what must stay hot.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.recommend import top_k

from .index import (SearchResult, _apply_exclusions, _as_queries, _kmeans,
                    _ranked, scratch)
from .ops import interest_readout, pq_adc_scores

__all__ = ["ScalarQuantizer", "ProductQuantizer", "SQIndex", "PQIndex",
           "IVFPQIndex", "build_quant_index", "load_quant_state"]

# Rows of int8 codes upcast per tile during an SQ scan (bounds the float32
# scratch to _SCAN_BLOCK * dim, independent of catalog size).
_SCAN_BLOCK = 8192


class ScalarQuantizer:
    """Per-dimension affine int8 quantizer: ``x ≈ codes * scale + offset``.

    ``fit`` centers each dimension on the midpoint of its observed range and
    spreads the half-range over 127 steps, so codes stay within ``±127`` and
    the decode error per dimension is at most ``scale / 2``.
    """

    def __init__(self, scale: np.ndarray, offset: np.ndarray):
        self.scale = np.asarray(scale, dtype=np.float32)
        self.offset = np.asarray(offset, dtype=np.float32)

    @classmethod
    def fit(cls, vectors: np.ndarray) -> "ScalarQuantizer":
        vectors = np.asarray(vectors, dtype=np.float32)
        lo = vectors.min(axis=0)
        hi = vectors.max(axis=0)
        center = (hi + lo) * np.float32(0.5)
        halfspan = (hi - lo) * np.float32(0.5)
        scale = np.maximum(halfspan / np.float32(127.0), np.float32(1e-12))
        return cls(scale, center)

    def encode(self, vectors: np.ndarray) -> np.ndarray:
        vectors = np.asarray(vectors, dtype=np.float32)
        steps = np.rint((vectors - self.offset) / self.scale)
        return np.clip(steps, -127.0, 127.0).astype(np.int8)

    def decode(self, codes: np.ndarray) -> np.ndarray:
        return np.asarray(codes, dtype=np.float32) * self.scale + self.offset


class ProductQuantizer:
    """Seeded product quantizer: ``m`` subspaces × ``ksub``-entry codebooks.

    Each item stores one uint8 code per subspace (``m`` bytes/item).  The
    codebooks are per-subspace seeded k-means (:func:`repro.serve.index._kmeans`)
    centroids, so construction is deterministic given the seed.
    """

    def __init__(self, codebooks: np.ndarray):
        self.codebooks = np.asarray(codebooks, dtype=np.float32)
        if self.codebooks.ndim != 3:
            raise ValueError(f"expected (m, ksub, dsub) codebooks, got shape "
                             f"{self.codebooks.shape}")

    @property
    def m(self) -> int:
        return int(self.codebooks.shape[0])

    @property
    def ksub(self) -> int:
        return int(self.codebooks.shape[1])

    @property
    def dsub(self) -> int:
        return int(self.codebooks.shape[2])

    @classmethod
    def fit(cls, vectors: np.ndarray, m: int = 8, ksub: int = 256,
            iterations: int = 8, seed: int = 0) -> "ProductQuantizer":
        vectors = np.asarray(vectors, dtype=np.float32)
        n, dim = vectors.shape
        if m < 1 or dim % m:
            raise ValueError(f"pq subspace count m={m} must divide dim={dim}")
        if not 1 <= ksub <= 256:
            raise ValueError(f"ksub={ksub} must fit a uint8 code (1..256)")
        ksub = min(int(ksub), n)
        dsub = dim // m
        rng = np.random.default_rng(seed)
        codebooks = np.empty((m, ksub, dsub), dtype=np.float32)
        for sub in range(m):
            block = np.ascontiguousarray(vectors[:, sub * dsub:(sub + 1) * dsub])
            codebooks[sub], _ = _kmeans(block, ksub, iterations, rng)
        return cls(codebooks)

    def encode(self, vectors: np.ndarray) -> np.ndarray:
        """Nearest sub-codebook entry per subspace → ``(N, m)`` uint8."""
        vectors = np.asarray(vectors, dtype=np.float32)
        codes = np.empty((vectors.shape[0], self.m), dtype=np.uint8)
        for sub in range(self.m):
            block = vectors[:, sub * self.dsub:(sub + 1) * self.dsub]
            entries = self.codebooks[sub]
            cross = block @ entries.T
            distances = (block ** 2).sum(axis=1, keepdims=True) - 2.0 * cross \
                + (entries ** 2).sum(axis=1)[None, :]
            codes[:, sub] = distances.argmin(axis=1)
        return codes

    def decode(self, codes: np.ndarray) -> np.ndarray:
        codes = np.asarray(codes, dtype=np.int64)
        parts = [self.codebooks[sub][codes[:, sub]] for sub in range(self.m)]
        return np.concatenate(parts, axis=1)

    def lookup_tables(self, queries: np.ndarray) -> np.ndarray:
        """Per-query ADC tables ``(K, m, ksub)``: inner product of each query
        sub-vector with every sub-codebook entry."""
        queries = np.asarray(queries, dtype=np.float32)
        split = queries.reshape(queries.shape[0], self.m, self.dsub)
        return np.einsum("kmd,mcd->kmc", split, self.codebooks)


def _refine_and_rank(index, queries: np.ndarray, scan_scores: np.ndarray,
                     k: int, depth: int, scanned: int,
                     scan_seconds: float) -> SearchResult:
    """Exact float64 re-score of the top ``depth`` scan candidates.

    Exclusions were applied to ``scan_scores`` before this call, so excluded
    items are ``-inf`` and never occupy refine slots.  The candidate rows are
    gathered out of the (possibly memory-mapped) vector block and re-scored
    with the model readout, promoted to float64 — the same promotion
    ``ExactIndex`` performs — so with ``depth >= N`` the ranking matches the
    exact backend.  This is the only float64 code path in the module.
    """
    start = perf_counter()
    # Ascending rows: the gather walks a memory-mapped block front to back.
    rows = np.sort(top_k(scan_scores, depth))
    scores = scratch.filled((index.num_items,), np.float64, -np.inf)
    if len(rows):
        gathered = np.asarray(index.vectors[rows], dtype=np.float32)
        per_interest = queries @ gathered.T                   # (K, R)
        scores[rows] = interest_readout(per_interest, index.score_mode,
                                        index.score_pow)
    return _ranked(index.items, scores, k, scanned, scan_seconds,
                   perf_counter() - start, int(len(rows)))


class _QuantIndex:
    """Shared search skeleton: quantized scan → exclusions → optional exact
    refine → rank.  Subclasses implement ``_scan`` returning a full-length
    float32 score vector (``-inf`` for unscanned rows) plus the number of
    candidates actually ADC/SQ-scored."""

    def __init__(self, item_vectors: np.ndarray, score_mode: str,
                 score_pow: float, refine: int):
        # Uncopied reference — a read-only memmap with dir-format artifacts;
        # touched only by the refine gather, never by the scan.
        self.vectors = np.asarray(item_vectors, dtype=np.float32)
        self.num_items = int(self.vectors.shape[0])
        if self.num_items < 1:
            raise ValueError("cannot index an empty catalog")
        self.score_mode = score_mode
        self.score_pow = float(score_pow)
        self.refine = max(0, int(refine))
        self.items = np.arange(1, self.num_items + 1, dtype=np.int64)

    def _scan(self, queries: np.ndarray) -> tuple[np.ndarray, int]:
        raise NotImplementedError

    def search(self, interests: np.ndarray, k: int, exclude=None,
               refine: int | None = None) -> SearchResult:
        """Top-``k`` via quantized scan; ``refine`` overrides the constructor
        depth for this call (0 disables the exact re-score)."""
        if k < 1:
            raise ValueError("k must be positive")
        queries = np.asarray(_as_queries(interests), dtype=np.float32)
        depth = self.refine if refine is None else max(0, int(refine))
        start = perf_counter()
        scores, scanned = self._scan(queries)
        scan_seconds = perf_counter() - start
        scores = _apply_exclusions(scores, exclude)
        if depth > 0:
            return _refine_and_rank(self, queries, scores, k, depth, scanned,
                                    scan_seconds)
        return _ranked(self.items, scores, k, scanned, scan_seconds)


class SQIndex(_QuantIndex):
    """Int8 scalar-quantized full-catalog scan (backend ``exact_sq``).

    Scan scores decompose as ``(q * scale) · codes + q · offset``, so the
    int8 block is consumed tile by tile through a float32 scratch buffer —
    the codes are never decoded to a full float copy of the table.
    """

    backend = "exact_sq"

    def __init__(self, item_vectors: np.ndarray, score_mode: str = "max",
                 score_pow: float = 1.0, refine: int = 0,
                 quantizer: ScalarQuantizer | None = None,
                 codes: np.ndarray | None = None):
        super().__init__(item_vectors, score_mode, score_pow, refine)
        self.quantizer = quantizer if quantizer is not None \
            else ScalarQuantizer.fit(self.vectors)
        self.codes = np.asarray(codes, dtype=np.int8) if codes is not None \
            else self.quantizer.encode(self.vectors)

    def _scan(self, queries: np.ndarray) -> tuple[np.ndarray, int]:
        scaled = queries * self.quantizer.scale[None, :]          # (K, D)
        base = queries @ self.quantizer.offset                    # (K,)
        dim = self.codes.shape[1]
        per_interest = scratch.take((queries.shape[0], self.num_items),
                                    np.float32)
        tile = scratch.take((min(_SCAN_BLOCK, self.num_items), dim),
                            np.float32)
        for lo in range(0, self.num_items, _SCAN_BLOCK):
            hi = min(lo + _SCAN_BLOCK, self.num_items)
            chunk = tile[:hi - lo]
            np.copyto(chunk, self.codes[lo:hi], casting="safe")
            np.matmul(scaled, chunk.T, out=per_interest[:, lo:hi])
        per_interest += base[:, None]
        combined = interest_readout(per_interest, self.score_mode,
                                    self.score_pow)
        return combined, self.num_items

    def resident_bytes(self) -> int:
        """Bytes hot at scan time: int8 codes + the affine parameters."""
        return int(self.codes.nbytes + self.quantizer.scale.nbytes
                   + self.quantizer.offset.nbytes)

    def describe(self) -> dict:
        return {"refine": self.refine,
                "code_bytes_per_item": int(self.codes.shape[1]),
                "resident_bytes": self.resident_bytes()}

    # -- serialization ----------------------------------------------------
    def state(self) -> tuple[dict, dict]:
        meta = {"backend": self.backend, "refine": int(self.refine),
                "score_mode": self.score_mode,
                "score_pow": float(self.score_pow)}
        return meta, {"codes": self.codes, "scale": self.quantizer.scale,
                      "offset": self.quantizer.offset}

    @classmethod
    def from_state(cls, item_vectors: np.ndarray, meta: dict, arrays: dict,
                   score_mode: str = "max",
                   score_pow: float = 1.0) -> "SQIndex":
        quantizer = ScalarQuantizer(arrays["scale"], arrays["offset"])
        return cls(item_vectors, score_mode=score_mode, score_pow=score_pow,
                   refine=int(meta.get("refine", 0)), quantizer=quantizer,
                   codes=arrays["codes"])


class PQIndex(_QuantIndex):
    """Product-quantized full-catalog ADC scan (backend ``pq``).

    ``m`` uint8 codes per item; per-query lookup tables turn the scan into
    ``m`` table gathers (:func:`repro.serve.ops.pq_adc_scores`).
    """

    backend = "pq"

    def __init__(self, item_vectors: np.ndarray, m: int = 8, ksub: int = 256,
                 score_mode: str = "max", score_pow: float = 1.0,
                 refine: int = 0, seed: int = 0, kmeans_iterations: int = 8,
                 quantizer: ProductQuantizer | None = None,
                 codes: np.ndarray | None = None):
        super().__init__(item_vectors, score_mode, score_pow, refine)
        self.quantizer = quantizer if quantizer is not None \
            else ProductQuantizer.fit(self.vectors, m=m, ksub=ksub,
                                      iterations=kmeans_iterations, seed=seed)
        self.codes = np.asarray(codes, dtype=np.uint8) if codes is not None \
            else self.quantizer.encode(self.vectors)

    def _scan(self, queries: np.ndarray) -> tuple[np.ndarray, int]:
        luts = self.quantizer.lookup_tables(queries)              # (K, m, ksub)
        per_interest = pq_adc_scores(
            luts, self.codes,
            out=scratch.take((queries.shape[0], self.num_items), np.float32))
        combined = interest_readout(per_interest, self.score_mode,
                                    self.score_pow)
        return combined, self.num_items

    def resident_bytes(self) -> int:
        """Bytes hot at scan time: uint8 codes + the codebooks."""
        return int(self.codes.nbytes + self.quantizer.codebooks.nbytes)

    def describe(self) -> dict:
        return {"m": self.quantizer.m, "ksub": self.quantizer.ksub,
                "refine": self.refine,
                "code_bytes_per_item": int(self.codes.shape[1]),
                "resident_bytes": self.resident_bytes()}

    # -- serialization ----------------------------------------------------
    def state(self) -> tuple[dict, dict]:
        meta = {"backend": self.backend, "refine": int(self.refine),
                "m": self.quantizer.m, "ksub": self.quantizer.ksub,
                "score_mode": self.score_mode,
                "score_pow": float(self.score_pow)}
        return meta, {"codebooks": self.quantizer.codebooks,
                      "codes": self.codes}

    @classmethod
    def from_state(cls, item_vectors: np.ndarray, meta: dict, arrays: dict,
                   score_mode: str = "max",
                   score_pow: float = 1.0) -> "PQIndex":
        return cls(item_vectors, score_mode=score_mode, score_pow=score_pow,
                   refine=int(meta.get("refine", 0)),
                   quantizer=ProductQuantizer(arrays["codebooks"]),
                   codes=arrays["codes"])


class IVFPQIndex(PQIndex):
    """IVF coarse partitions composed with PQ codes (backend ``ivf_pq``).

    Each interest vector probes its ``nprobe`` closest partitions (same
    coarse structure as :class:`~repro.serve.index.IVFIndex`) and only the
    union of probed rows is ADC-scanned.  The default ``nprobe`` is more
    generous than IVF's (``nlist // 2``) because the per-candidate scan cost
    is a handful of table gathers, and the refine step absorbs the residual
    coarse/code error.
    """

    backend = "ivf_pq"

    def __init__(self, item_vectors: np.ndarray, m: int = 8, ksub: int = 256,
                 nlist: int | None = None, nprobe: int | None = None,
                 score_mode: str = "max", score_pow: float = 1.0,
                 refine: int = 0, seed: int = 0, kmeans_iterations: int = 8,
                 quantizer: ProductQuantizer | None = None,
                 codes: np.ndarray | None = None,
                 coarse: tuple[np.ndarray, list[np.ndarray]] | None = None):
        super().__init__(item_vectors, m=m, ksub=ksub, score_mode=score_mode,
                         score_pow=score_pow, refine=refine, seed=seed,
                         kmeans_iterations=kmeans_iterations,
                         quantizer=quantizer, codes=codes)
        if nlist is None:
            nlist = max(1, int(round(np.sqrt(self.num_items))))
        self.nlist = min(int(nlist), self.num_items)
        self.nprobe = max(1, self.nlist // 2) if nprobe is None \
            else max(1, min(int(nprobe), self.nlist))
        if coarse is not None:
            self.centroids, self.lists = coarse
        else:
            rng = np.random.default_rng(seed)
            self.centroids, assignment = _kmeans(self.vectors, self.nlist,
                                                 kmeans_iterations, rng)
            self.lists = [np.flatnonzero(assignment == c)
                          for c in range(self.nlist)]

    def _candidate_rows(self, queries: np.ndarray) -> np.ndarray:
        affinity = queries @ self.centroids.T                     # (K, C)
        probe_count = min(self.nprobe, self.nlist)
        probed = np.argpartition(-affinity, probe_count - 1,
                                 axis=1)[:, :probe_count]
        clusters = np.unique(probed)
        return np.concatenate([self.lists[c] for c in clusters]) \
            if len(clusters) else np.arange(self.num_items, dtype=np.int64)

    def _scan(self, queries: np.ndarray) -> tuple[np.ndarray, int]:
        rows = self._candidate_rows(queries)
        luts = self.quantizer.lookup_tables(queries)
        per_interest = pq_adc_scores(luts, self.codes[rows])      # (K, M)
        combined = interest_readout(per_interest, self.score_mode,
                                    self.score_pow)
        scores = scratch.filled((self.num_items,), np.float32, -np.inf)
        scores[rows] = combined
        return scores, int(len(rows))

    def resident_bytes(self) -> int:
        """PQ residency plus the coarse centroids and inverted lists."""
        return int(super().resident_bytes() + self.centroids.nbytes
                   + sum(rows.nbytes for rows in self.lists))

    def describe(self) -> dict:
        info = super().describe()
        info.update({"nlist": self.nlist, "nprobe": self.nprobe,
                     "resident_bytes": self.resident_bytes()})
        return info

    # -- serialization ----------------------------------------------------
    def state(self) -> tuple[dict, dict]:
        meta, arrays = super().state()
        meta.update({"backend": self.backend, "nlist": int(self.nlist),
                     "nprobe": int(self.nprobe)})
        sizes = np.fromiter((len(rows) for rows in self.lists),
                            dtype=np.int64, count=self.nlist)
        arrays["centroids"] = self.centroids
        arrays["list_rows"] = np.concatenate(self.lists) if self.num_items \
            else np.empty(0, dtype=np.int64)
        arrays["list_sizes"] = sizes
        return meta, arrays

    @classmethod
    def from_state(cls, item_vectors: np.ndarray, meta: dict, arrays: dict,
                   score_mode: str = "max",
                   score_pow: float = 1.0) -> "IVFPQIndex":
        sizes = np.asarray(arrays["list_sizes"], dtype=np.int64)
        rows = np.asarray(arrays["list_rows"], dtype=np.int64)
        lists = np.split(rows, np.cumsum(sizes)[:-1])
        return cls(item_vectors, score_mode=score_mode, score_pow=score_pow,
                   refine=int(meta.get("refine", 0)),
                   nlist=int(meta["nlist"]), nprobe=int(meta["nprobe"]),
                   quantizer=ProductQuantizer(arrays["codebooks"]),
                   codes=arrays["codes"],
                   coarse=(np.asarray(arrays["centroids"], dtype=np.float32),
                           lists))


_QUANT_CLASSES = {"exact_sq": SQIndex, "pq": PQIndex, "ivf_pq": IVFPQIndex}


def build_quant_index(item_vectors: np.ndarray, backend: str,
                      score_mode: str = "max", score_pow: float = 1.0,
                      **kwargs):
    """Construct a quantized index; ``backend`` is ``"pq"``, ``"ivf_pq"`` or
    ``"exact_sq"`` (normally reached via :func:`repro.serve.index.build_index`)."""
    try:
        cls = _QUANT_CLASSES[backend]
    except KeyError:
        raise ValueError(f"unknown quantized backend {backend!r}; choose "
                         f"'pq', 'ivf_pq' or 'exact_sq'") from None
    return cls(item_vectors, score_mode=score_mode, score_pow=score_pow,
               **kwargs)


def load_quant_state(item_vectors: np.ndarray, meta: dict, arrays: dict,
                     score_mode: str = "max", score_pow: float = 1.0):
    """Re-attach a serialized quantized index (``state()`` output) without
    re-running k-means or re-encoding the catalog."""
    backend = meta.get("backend")
    try:
        cls = _QUANT_CLASSES[backend]
    except KeyError:
        raise ValueError(f"unknown quantized backend {backend!r}; choose "
                         f"'pq', 'ivf_pq' or 'exact_sq'") from None
    return cls.from_state(item_vectors, meta, arrays, score_mode=score_mode,
                          score_pow=score_pow)
