"""``repro.hypergraph`` — hypergraph substrate for MISSL's structural encoder."""

from .builder import CROSS_BEHAVIOR_EDGE, BuilderConfig, build_hypergraph
from .hgnn import HGNNConv, HGNNEncoder
from .incidence import Hypergraph, hgnn_propagation_matrix
from .ops import (pair_aggregate, pair_dot, segment_max, segment_softmax,
                  segment_sum, sparse_mm)
from .transformer import HypergraphTransformer, HypergraphTransformerLayer

__all__ = [
    "Hypergraph", "hgnn_propagation_matrix",
    "BuilderConfig", "build_hypergraph", "CROSS_BEHAVIOR_EDGE",
    "sparse_mm", "segment_sum", "segment_softmax", "segment_max",
    "pair_dot", "pair_aggregate",
    "HGNNConv", "HGNNEncoder",
    "HypergraphTransformer", "HypergraphTransformerLayer",
]
