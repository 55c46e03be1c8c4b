"""Hypergraph transformer: attention-based node ↔ hyperedge message passing.

The core structural encoder of MISSL.  Each layer runs two attention phases
over the incidence structure:

1. **node → edge**: every hyperedge attends over its member items to build an
   edge representation (seeded by the mean of its members plus a learned
   behavior-type embedding, so "view edges" and "buy edges" aggregate
   differently).
2. **edge → node**: every item attends over its incident hyperedges to update
   its representation, letting signal flow across behaviors (via the
   cross-behavior user edges) and across users (via shared items).

Attention over the ragged incidence structure is computed on the COO
membership pairs: :func:`~repro.hypergraph.ops.pair_dot` scores each pair,
:func:`~repro.hypergraph.ops.segment_softmax` normalizes the scores within a
group, and :func:`~repro.hypergraph.ops.pair_aggregate` sums the weighted
values, each phase laid out by the layer's edge-grouped and node-grouped
plans.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.nn import functional as F
from repro.nn.layers import Dropout, FeedForward, LayerNorm, Linear
from repro.nn.layers import Embedding
from repro.nn.module import Module, ModuleList
from repro.nn.tensor import Tensor

from repro.nn.scatter import SegmentPlan
from repro.nn.tensor import get_default_dtype

from .builder import CROSS_BEHAVIOR_EDGE
from .incidence import Hypergraph, hgnn_propagation_matrix
from .ops import pair_aggregate, pair_dot, segment_softmax, sparse_mm

__all__ = ["HypergraphTransformerLayer", "HypergraphTransformer"]


def _edge_mean_matrix(graph: Hypergraph) -> sp.csr_matrix:
    """``De^-1 H^T``: averages member-node features into each edge.

    Computed in float64 for accuracy, then cast to the active default dtype so
    ``sparse_mm`` does not silently promote the whole encoder to float64.
    """
    h = graph.incidence.astype(np.float64)
    sizes = np.asarray(h.sum(axis=0)).ravel()
    inv = np.where(sizes > 0, 1.0 / np.maximum(sizes, 1e-12), 0.0)
    return (sp.diags(inv) @ h.T).tocsr().astype(get_default_dtype())


class HypergraphTransformerLayer(Module):
    """One round of node→edge→node attention with residual + FFN."""

    def __init__(self, dim: int, graph: Hypergraph, num_edge_types: int,
                 rng: np.random.Generator, dropout: float = 0.0):
        super().__init__()
        self.dim = dim
        node_index, edge_index = graph.coo_pairs()
        self.num_nodes = graph.num_nodes
        self.num_edges = graph.num_edges
        # The COO index arrays are static, so the CSR layouts of the pairs,
        # grouped by node and by edge, are built once per layer instead of
        # once per call.  The plans' own id arrays are the ones passed to
        # the ops, which lets the ops' plan check pass on identity.
        self._node_plan = SegmentPlan(node_index, self.num_nodes)
        self._edge_plan = SegmentPlan(edge_index, self.num_edges)
        self.node_index = self._node_plan.segment_ids
        self.edge_index = self._edge_plan.segment_ids
        self.edge_mean = _edge_mean_matrix(graph)
        # Behavior-type id per edge; the cross-behavior sentinel maps to the
        # last row of the type embedding table.
        types = graph.edge_behavior.copy()
        types[types == CROSS_BEHAVIOR_EDGE] = num_edge_types - 1
        self.edge_type = types
        self.type_embedding = Embedding(num_edge_types, dim, rng)

        scale = 1.0 / np.sqrt(dim)
        self._scale = scale
        # node→edge attention projections
        self.n2e_query = Linear(dim, dim, rng, bias=False)
        self.n2e_key = Linear(dim, dim, rng, bias=False)
        self.n2e_value = Linear(dim, dim, rng, bias=False)
        # edge→node attention projections
        self.e2n_query = Linear(dim, dim, rng, bias=False)
        self.e2n_key = Linear(dim, dim, rng, bias=False)
        self.e2n_value = Linear(dim, dim, rng, bias=False)

        self.ffn_norm = LayerNorm(dim)
        self.ffn = FeedForward(dim, 2 * dim, rng, dropout=dropout)
        self.dropout = Dropout(dropout, rng)
        # Three gated residual terms, strongest first:
        #   prop_gate — plain symmetric-normalized propagation (HGNN smoothing,
        #       parameter-free), the reliably useful signal; starts at 0.5.
        #   attn_gate — the learned node↔edge attention refinement; starts
        #       small (0.1) so its early-training noise cannot wash out item
        #       identity.
        #   ffn_gate — position-wise transformation, also starts small.
        # All three are learned scalars, so the layer can interpolate between
        # "pure smoothing" and "full transformer" as the data demands.
        self.propagation = hgnn_propagation_matrix(graph)
        from repro.nn.module import Parameter
        self.prop_gate = Parameter(np.array(0.5))
        self.attn_gate = Parameter(np.array(0.1))
        self.ffn_gate = Parameter(np.array(0.1))

    def forward(self, x: Tensor) -> Tensor:
        """Update node features ``x`` of shape ``(num_nodes, dim)``."""
        node_idx, edge_idx = self.node_index, self.edge_index
        # Edge seed: mean of members + behavior-type embedding.
        edge_seed = sparse_mm(self.edge_mean, x) + self.type_embedding(self.edge_type)

        # Phase 1: edges attend over member nodes.
        queries = self.n2e_query(edge_seed)          # (E, D)
        keys = self.n2e_key(x)                       # (V, D)
        values = self.n2e_value(x)                   # (V, D)
        scores = pair_dot(queries, keys, edge_idx, node_idx,
                          self._edge_plan, self._node_plan) * self._scale
        alpha = segment_softmax(scores, edge_idx, self.num_edges, plan=self._edge_plan)
        edge_repr = pair_aggregate(alpha, values, edge_idx, node_idx, self.num_edges,
                                   self._edge_plan, self._node_plan)
        edge_repr = edge_repr + edge_seed            # residual keeps empty edges sane

        # Phase 2: nodes attend over incident edges.
        node_queries = self.e2n_query(x)             # (V, D)
        edge_keys = self.e2n_key(edge_repr)          # (E, D)
        edge_values = self.e2n_value(edge_repr)      # (E, D)
        scores = pair_dot(node_queries, edge_keys, node_idx, edge_idx,
                          self._node_plan, self._edge_plan) * self._scale
        beta = segment_softmax(scores, node_idx, self.num_nodes, plan=self._node_plan)
        node_update = pair_aggregate(beta, edge_values, node_idx, edge_idx, self.num_nodes,
                                     self._node_plan, self._edge_plan)

        x = x + self.prop_gate * sparse_mm(self.propagation, x)
        x = x + self.attn_gate * self.dropout(node_update)
        x = x + self.ffn_gate * self.dropout(self.ffn(self.ffn_norm(x)))
        return x


class HypergraphTransformer(Module):
    """Stack of hypergraph transformer layers over the item embedding table.

    ``num_edge_types`` is ``schema.num_behaviors + 1`` (the +1 hosts the
    cross-behavior user edges).
    """

    def __init__(self, dim: int, graph: Hypergraph, num_edge_types: int, num_layers: int,
                 rng: np.random.Generator, dropout: float = 0.0):
        super().__init__()
        self.layers = ModuleList([
            HypergraphTransformerLayer(dim, graph, num_edge_types, rng, dropout=dropout)
            for _ in range(num_layers)
        ])

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x
