"""Hypergraph incidence structure.

A hypergraph over the item vocabulary is stored as a sparse incidence matrix
``H`` of shape ``(num_nodes, num_edges)`` with ``H[v, e] = 1`` when item ``v``
belongs to hyperedge ``e``, plus per-edge metadata (the behavior that created
the edge and the user it came from).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = ["Hypergraph", "hgnn_propagation_matrix", "set_reference_dtype",
           "reference_dtype_enabled"]

# When True, hgnn_propagation_matrix returns its float64 assembly unchanged,
# reproducing the seed implementation (whose float64 CSR silently promoted the
# whole downstream forward).  Flipped by repro.perf.reference_mode so the
# benchmark baseline measures the true seed path; never enable in training.
_REFERENCE_DTYPE = False


def set_reference_dtype(enabled: bool) -> None:
    """Toggle the seed's float64 propagation-operator behavior (perf baseline)."""
    global _REFERENCE_DTYPE
    _REFERENCE_DTYPE = bool(enabled)


def reference_dtype_enabled() -> bool:
    """Return True when the seed float64 operator behavior is active."""
    return _REFERENCE_DTYPE


@dataclass
class Hypergraph:
    """Incidence matrix plus edge metadata.

    Attributes:
        incidence: ``(num_nodes, num_edges)`` CSR binary matrix.  Node index
            equals item id (index 0 is the padding item and never appears in
            an edge).
        edge_behavior: ``(num_edges,)`` behavior-type id of each hyperedge.
        edge_user: ``(num_edges,)`` the user whose history created the edge
            (-1 for global edges).
    """

    incidence: sp.csr_matrix
    edge_behavior: np.ndarray
    edge_user: np.ndarray

    def __post_init__(self) -> None:
        edges = self.incidence.shape[1]
        if self.edge_behavior.shape != (edges,):
            raise ValueError("edge_behavior length must equal number of edges")
        if self.edge_user.shape != (edges,):
            raise ValueError("edge_user length must equal number of edges")

    @property
    def num_nodes(self) -> int:
        return self.incidence.shape[0]

    @property
    def num_edges(self) -> int:
        return self.incidence.shape[1]

    def node_degrees(self) -> np.ndarray:
        """Number of hyperedges each node belongs to."""
        return np.asarray(self.incidence.sum(axis=1)).ravel()

    def edge_sizes(self) -> np.ndarray:
        """Number of member nodes of each hyperedge."""
        return np.asarray(self.incidence.sum(axis=0)).ravel()

    def coo_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(node_index, edge_index) arrays of all memberships (COO order)."""
        coo = self.incidence.tocoo()
        return coo.row, coo.col

    def to_networkx(self):
        """The bipartite expansion as a ``networkx.Graph``.

        Item nodes are the integers ``0..num_nodes-1``; hyperedge nodes are
        strings ``"e<i>"`` carrying ``behavior`` and ``user`` attributes.
        Intended for offline analysis (connectivity, component structure),
        not for message passing.
        """
        import networkx as nx
        graph = nx.Graph()
        graph.add_nodes_from(range(self.num_nodes), kind="item")
        for edge in range(self.num_edges):
            graph.add_node(f"e{edge}", kind="hyperedge",
                           behavior=int(self.edge_behavior[edge]),
                           user=int(self.edge_user[edge]))
        rows, cols = self.coo_pairs()
        graph.add_edges_from((int(v), f"e{e}") for v, e in zip(rows, cols))
        return graph

    def connected_item_fraction(self) -> float:
        """Fraction of item nodes reachable from the largest component.

        A diagnostic for hypergraph construction: low values mean the graph
        is fragmented and message passing cannot bridge users/behaviors.
        """
        import networkx as nx
        graph = self.to_networkx()
        items_with_edges = [n for n in graph.nodes
                            if graph.nodes[n].get("kind") == "item"
                            and graph.degree(n) > 0]
        if not items_with_edges:
            return 0.0
        largest = max(nx.connected_components(graph), key=len)
        covered = sum(1 for n in items_with_edges if n in largest)
        return covered / max(1, self.num_nodes - 1)  # exclude the padding node

    def restrict_edges(self, keep: np.ndarray) -> "Hypergraph":
        """Sub-hypergraph with only the selected edges (boolean or index array)."""
        keep = np.asarray(keep)
        if keep.dtype == bool:
            keep = np.flatnonzero(keep)
        return Hypergraph(
            incidence=self.incidence[:, keep].tocsr(),
            edge_behavior=self.edge_behavior[keep],
            edge_user=self.edge_user[keep],
        )


def hgnn_propagation_matrix(graph: Hypergraph, edge_weights: np.ndarray | None = None
                            ) -> sp.csr_matrix:
    """The symmetric HGNN operator ``Dv^-1/2 H W De^-1 H^T Dv^-1/2``.

    Isolated nodes (degree 0, e.g. the padding row) receive zero rows, which
    leaves their embeddings untouched when the layer adds a residual.

    The operator is assembled in float64 for accuracy but returned in the
    active :func:`repro.nn.tensor.get_default_dtype` — a float64 CSR here
    would silently promote every downstream ``sparse_mm`` (and the entire
    model forward fed by the enhanced item table) to float64.  Gradcheck
    mode sets the default dtype to float64 and keeps full precision.
    """
    h = graph.incidence.astype(np.float64)
    num_edges = graph.num_edges
    if edge_weights is None:
        edge_weights = np.ones(num_edges, dtype=np.float64)
    node_deg = np.asarray(h.sum(axis=1)).ravel()
    edge_deg = np.asarray(h.sum(axis=0)).ravel()
    inv_sqrt_nd = np.where(node_deg > 0, 1.0 / np.sqrt(np.maximum(node_deg, 1e-12)), 0.0)
    inv_ed = np.where(edge_deg > 0, 1.0 / np.maximum(edge_deg, 1e-12), 0.0)
    dv = sp.diags(inv_sqrt_nd)
    de = sp.diags(inv_ed * edge_weights)
    operator = (dv @ h @ de @ h.T @ dv).tocsr()
    if _REFERENCE_DTYPE:
        return operator
    from repro.nn.tensor import get_default_dtype
    return operator.astype(get_default_dtype())
