"""Hypergraph construction from multi-behavior interaction histories.

Two families of hyperedges, following the multi-behavior hypergraph
literature (MB-HT, MISSL):

* **Behavior-sequence edges** — for every (user, behavior), consecutive
  windows of the user's behavior sequence form hyperedges.  These capture
  within-behavior co-occurrence ("items browsed together").
* **Cross-behavior user edges** — for every user, one hyperedge joins the
  items of *all* of the user's behaviors.  These let the sparse target
  behavior borrow signal from dense auxiliary behaviors of the same user.

The graph must be built from **training data only**: pass the number of
trailing target-behavior events to exclude (2 for the leave-one-out
valid+test items) so no test signal leaks into item representations.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.data.dataset import MultiBehaviorDataset
from repro.obs import span

from .incidence import Hypergraph

__all__ = ["build_hypergraph", "BuilderConfig"]

CROSS_BEHAVIOR_EDGE = -1
"""Sentinel used in ``edge_behavior`` for cross-behavior user edges."""


class BuilderConfig:
    """Construction knobs.

    Attributes:
        window: behavior-sequence edges cover non-overlapping windows of this
            many consecutive events (None = one edge per whole sequence).
        min_edge_size: hyperedges with fewer distinct items are dropped
            (singleton edges carry no co-occurrence signal).
        include_cross_behavior: emit the per-user cross-behavior edges.
        holdout_targets: number of trailing target-behavior events per user
            to exclude (leave-one-out leakage guard).
    """

    def __init__(self, window: int | None = 10, min_edge_size: int = 2,
                 include_cross_behavior: bool = True, holdout_targets: int = 2):
        if window is not None and window < 2:
            raise ValueError("window must be at least 2 (or None)")
        if min_edge_size < 2:
            raise ValueError("min_edge_size must be at least 2")
        self.window = window
        self.min_edge_size = min_edge_size
        self.include_cross_behavior = include_cross_behavior
        self.holdout_targets = holdout_targets


def build_hypergraph(dataset: MultiBehaviorDataset, config: BuilderConfig | None = None
                     ) -> Hypergraph:
    """Build the training hypergraph over items ``0..num_items`` (0 isolated)."""
    with span("hypergraph.build", users=len(dataset.users),
              items=dataset.num_items) as build_span:
        graph = _build_hypergraph(dataset, config)
        build_span.set(edges=graph.num_edges)
        return graph


def _build_hypergraph(dataset: MultiBehaviorDataset,
                      config: BuilderConfig | None) -> Hypergraph:
    config = config or BuilderConfig()
    schema = dataset.schema
    rows: list[int] = []
    cols: list[int] = []
    edge_behavior: list[int] = []
    edge_user: list[int] = []
    edge_count = 0

    def add_edge(items: set[int], behavior_id: int, user: int) -> None:
        nonlocal edge_count
        if len(items) < config.min_edge_size:
            return
        for item in items:
            rows.append(item)
            cols.append(edge_count)
        edge_behavior.append(behavior_id)
        edge_user.append(user)
        edge_count += 1

    for user in dataset.users:
        holdout_cutoff = None
        target_seq = dataset.sequence_with_times(user, schema.target)
        if config.holdout_targets > 0 and len(target_seq) > config.holdout_targets:
            holdout_cutoff = target_seq[-config.holdout_targets][1]

        user_items: set[int] = set()
        for behavior in schema.behaviors:
            sequence = [
                item for item, ts in dataset.sequence_with_times(user, behavior)
                if holdout_cutoff is None or ts < holdout_cutoff
            ]
            user_items.update(sequence)
            if not sequence:
                continue
            behavior_id = schema.behavior_id(behavior)
            if config.window is None:
                add_edge(set(sequence), behavior_id, user)
            else:
                for start in range(0, len(sequence), config.window):
                    add_edge(set(sequence[start:start + config.window]), behavior_id, user)
        if config.include_cross_behavior:
            add_edge(user_items, CROSS_BEHAVIOR_EDGE, user)

    num_nodes = dataset.num_items + 1  # index 0 = padding, stays isolated
    # Binary memberships; the operators assembled from it cast it themselves.
    incidence = sp.csr_matrix(
        (np.ones(len(rows), dtype=np.float32), (rows, cols)),
        shape=(num_nodes, max(edge_count, 1))
    )
    if edge_count == 0:
        edge_behavior = [CROSS_BEHAVIOR_EDGE]
        edge_user = [-1]
    return Hypergraph(
        incidence=incidence,
        edge_behavior=np.array(edge_behavior, dtype=np.int64),
        edge_user=np.array(edge_user, dtype=np.int64),
    )
