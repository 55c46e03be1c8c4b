"""Online serving subsystem: frozen artifacts, retrieval index, request engine.

Layers (each usable on its own):

- :mod:`repro.serve.artifact` — export a trained model into a pure-NumPy
  ``.npz`` inference artifact loadable without the autodiff graph.
- :mod:`repro.serve.encoder` — autodiff-free forward pass that maps user
  histories to multi-interest vectors, bitwise-equal to the eval-mode model.
- :mod:`repro.serve.index` — exact and IVF (coarse-quantized) retrieval over
  the frozen item table, queried with multi-interest vectors.
- :mod:`repro.serve.history` / :mod:`~repro.serve.cache` /
  :mod:`~repro.serve.batcher` — versioned user histories, a TTL + LRU cache
  of interest vectors (with single-flight stampede suppression), and the
  micro-batching request engine.
- :mod:`repro.serve.metrics` — per-stage latency histograms, QPS, cache
  hit rate and recall-vs-exact counters.
- :mod:`repro.serve.service` — the :class:`RecommenderService` facade that
  wires everything together (also behind ``python -m repro serve``).
- :mod:`repro.serve.net` — the network tier: the shared request parser, an
  NDJSON TCP front-end with bounded in-flight load shedding and graceful
  drain, a blocking client and a closed-loop load generator.
"""

from .artifact import (InferenceArtifact, export_artifact, load_artifact,
                       write_artifact)
from .batcher import MicroBatcher
from .cache import InterestCache
from .encoder import MisslServingEncoder, build_encoder, register_encoder
from .history import HistoryStore
from .index import ExactIndex, IVFIndex, SearchResult, build_index, topk_overlap
from .metrics import LatencyHistogram, ServingMetrics
from .net import (LoadReport, LocalBackend, NetClient, NetServer,
                  normalize_request, run_load)
from .service import RecommenderService

__all__ = [
    "InferenceArtifact",
    "export_artifact",
    "write_artifact",
    "load_artifact",
    "MisslServingEncoder",
    "build_encoder",
    "register_encoder",
    "ExactIndex",
    "IVFIndex",
    "SearchResult",
    "build_index",
    "topk_overlap",
    "HistoryStore",
    "InterestCache",
    "MicroBatcher",
    "LatencyHistogram",
    "ServingMetrics",
    "RecommenderService",
    "LoadReport",
    "LocalBackend",
    "NetClient",
    "NetServer",
    "normalize_request",
    "run_load",
]
