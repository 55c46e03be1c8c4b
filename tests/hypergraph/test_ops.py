"""Tests for the sparse/segment autodiff primitives."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hypergraph import (Hypergraph, HypergraphTransformerLayer, pair_aggregate,
                              pair_dot, segment_max, segment_softmax, segment_sum,
                              sparse_mm)
from repro.hypergraph.ops import _ROW_DOT_BLOCK
from repro.nn.scatter import SegmentPlan
from repro.nn.tensor import Tensor
from repro.utils import gradcheck


class TestSparseMM:
    def test_matches_dense(self, rng):
        matrix = sp.random(6, 5, density=0.4, random_state=0).tocsr()
        x = rng.normal(size=(5, 3))
        out = sparse_mm(matrix, Tensor(x))
        assert np.allclose(out.numpy(), matrix.toarray() @ x, atol=1e-5)

    def test_shape_mismatch(self, rng):
        matrix = sp.eye(4).tocsr()
        with pytest.raises(ValueError):
            sparse_mm(matrix, Tensor(rng.normal(size=(5, 2))))

    @pytest.mark.usefixtures("float64")
    def test_grads(self, rng):
        matrix = sp.random(6, 5, density=0.5, random_state=1).tocsr()
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        gradcheck(lambda a: sparse_mm(matrix, a), [x])


class TestSegmentSum:
    def test_values(self):
        values = Tensor(np.array([[1.0], [2.0], [3.0], [4.0]]))
        out = segment_sum(values, np.array([0, 0, 1, 1]), 2)
        assert np.allclose(out.numpy(), [[3.0], [7.0]])

    def test_empty_segment_is_zero(self):
        values = Tensor(np.ones((2, 3)))
        out = segment_sum(values, np.array([0, 2]), 4)
        assert np.allclose(out.numpy()[1], 0.0)
        assert np.allclose(out.numpy()[3], 0.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            segment_sum(Tensor(np.ones((2, 1))), np.array([0, 5]), 2)

    @pytest.mark.usefixtures("float64")
    def test_grads(self, rng):
        values = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        seg = np.array([0, 1, 1, 2, 2, 2])
        gradcheck(lambda v: segment_sum(v, seg, 3), [values])


class TestSegmentSoftmax:
    def test_sums_to_one_per_segment(self, rng):
        scores = Tensor(rng.normal(size=(7,)))
        seg = np.array([0, 0, 1, 1, 1, 2, 2])
        out = segment_softmax(scores, seg, 3).numpy()
        for s in range(3):
            assert out[seg == s].sum() == pytest.approx(1.0, rel=1e-5)

    def test_singleton_segment_is_one(self):
        out = segment_softmax(Tensor(np.array([5.0])), np.array([0]), 1).numpy()
        assert out[0] == pytest.approx(1.0)

    def test_numerically_stable(self):
        scores = Tensor(np.array([1e4, 1e4 + 1.0, -1e4]))
        out = segment_softmax(scores, np.array([0, 0, 0]), 1).numpy()
        assert np.all(np.isfinite(out))
        assert out.sum() == pytest.approx(1.0, rel=1e-5)

    def test_requires_1d(self, rng):
        with pytest.raises(ValueError):
            segment_softmax(Tensor(rng.normal(size=(3, 2))), np.array([0, 0, 1]), 2)

    @pytest.mark.usefixtures("float64")
    def test_grads(self, rng):
        scores = Tensor(rng.normal(size=(7,)), requires_grad=True)
        seg = np.array([0, 0, 1, 1, 1, 2, 2])
        weights = Tensor(rng.normal(size=(7,)))
        gradcheck(lambda s: segment_softmax(s, seg, 3) * weights, [scores])

    @given(st.integers(1, 5), st.integers(2, 12))
    @settings(max_examples=20, deadline=None)
    def test_property_sum_per_segment(self, num_segments, n):
        rng = np.random.default_rng(n * 31 + num_segments)
        seg = rng.integers(0, num_segments, size=n)
        out = segment_softmax(Tensor(rng.normal(size=n)), seg, num_segments).numpy()
        for s in np.unique(seg):
            assert out[seg == s].sum() == pytest.approx(1.0, rel=1e-4)


class TestSegmentMax:
    def test_values(self):
        values = np.array([1.0, 5.0, 2.0, -1.0])
        out = segment_max(values, np.array([0, 0, 1, 1]), 2)
        assert out.tolist() == [5.0, 2.0]

    def test_empty_segment_minus_inf(self):
        out = segment_max(np.array([1.0]), np.array([0]), 2)
        assert out[1] == -np.inf


# Five rows, four columns, pairs unsorted on both sides: row 3 has no pairs
# (an edge with no members), row 4 has a single pair, and column 0 appears
# in no pair (the isolated padding node).
PAIR_ROWS = np.array([2, 0, 1, 2, 0, 4, 1, 2])
PAIR_COLS = np.array([3, 1, 2, 1, 3, 2, 1, 2])


def _aggregate_by_loop(weights, x, rows, cols, num_rows):
    out = np.zeros((num_rows, x.shape[1]))
    for w, r, c in zip(weights, rows, cols):
        out[r] += w * x[c]
    return out


class TestPairDot:
    def test_values(self, rng):
        a, b = rng.normal(size=(5, 3)), rng.normal(size=(4, 3))
        out = pair_dot(Tensor(a), Tensor(b), PAIR_ROWS, PAIR_COLS).numpy()
        expected = (a[PAIR_ROWS] * b[PAIR_COLS]).sum(axis=-1)
        assert np.allclose(out, expected, atol=1e-5)

    def test_plans_match_planless(self, rng):
        a, b = Tensor(rng.normal(size=(5, 3))), Tensor(rng.normal(size=(4, 3)))
        plans = SegmentPlan(PAIR_ROWS, 5), SegmentPlan(PAIR_COLS, 4)
        np.testing.assert_array_equal(
            pair_dot(a, b, PAIR_ROWS, PAIR_COLS, *plans).numpy(),
            pair_dot(a, b, PAIR_ROWS, PAIR_COLS).numpy())

    def test_many_blocks(self, rng):
        # More pairs than one block of the row-dot kernel, with a ragged tail.
        n = 2 * _ROW_DOT_BLOCK + 3
        rows, cols = rng.integers(0, 40, size=n), rng.integers(0, 30, size=n)
        a, b = rng.normal(size=(40, 4)), rng.normal(size=(30, 4))
        out = pair_dot(Tensor(a), Tensor(b), rows, cols).numpy()
        assert np.allclose(out, (a[rows] * b[cols]).sum(axis=-1), atol=1e-5)

    def test_plan_for_other_pairs_rejected(self, rng):
        a, b = Tensor(rng.normal(size=(5, 3))), Tensor(rng.normal(size=(4, 3)))
        other = SegmentPlan(PAIR_ROWS[::-1], 5)
        with pytest.raises(ValueError, match="does not match"):
            pair_dot(a, b, PAIR_ROWS, PAIR_COLS, row_plan=other)
        with pytest.raises(ValueError, match="does not match"):
            pair_dot(a, b, PAIR_ROWS, PAIR_COLS,
                     col_plan=SegmentPlan(PAIR_COLS[::-1], 4))

    def test_pair_count_mismatch_rejected(self, rng):
        a, b = Tensor(rng.normal(size=(5, 3))), Tensor(rng.normal(size=(4, 3)))
        with pytest.raises(ValueError, match="same number of pairs"):
            pair_dot(a, b, PAIR_ROWS, PAIR_COLS[:-1])

    @pytest.mark.usefixtures("float64")
    def test_grads(self, rng):
        a = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        weights = Tensor(rng.normal(size=PAIR_ROWS.size))
        gradcheck(lambda u, v: pair_dot(u, v, PAIR_ROWS, PAIR_COLS) * weights,
                  [a, b])
        # No pair reads row 3 of a or column 0 of b.
        assert np.all(a.grad[3] == 0.0) and np.all(b.grad[0] == 0.0)

    @pytest.mark.usefixtures("float64")
    def test_grads_with_plans(self, rng):
        plans = SegmentPlan(PAIR_ROWS, 5), SegmentPlan(PAIR_COLS, 4)
        a = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        weights = Tensor(rng.normal(size=PAIR_ROWS.size))
        gradcheck(lambda u, v: pair_dot(u, v, PAIR_ROWS, PAIR_COLS, *plans)
                  * weights, [a, b])


class TestPairAggregate:
    def test_values(self, rng):
        weights, x = rng.normal(size=PAIR_ROWS.size), rng.normal(size=(4, 3))
        out = pair_aggregate(Tensor(weights), Tensor(x), PAIR_ROWS, PAIR_COLS,
                             5).numpy()
        expected = _aggregate_by_loop(weights, x, PAIR_ROWS, PAIR_COLS, 5)
        assert np.allclose(out, expected, atol=1e-5)
        assert np.all(out[3] == 0.0)  # a row without pairs stays zero

    def test_plan_for_other_pairs_rejected(self, rng):
        weights, x = Tensor(rng.normal(size=8)), Tensor(rng.normal(size=(4, 3)))
        with pytest.raises(ValueError, match="does not match"):
            pair_aggregate(weights, x, PAIR_ROWS, PAIR_COLS, 5,
                           row_plan=SegmentPlan(np.sort(PAIR_ROWS), 5))
        with pytest.raises(ValueError, match="does not match"):
            pair_aggregate(weights, x, PAIR_ROWS, PAIR_COLS, 6,
                           row_plan=SegmentPlan(PAIR_ROWS, 5))

    def test_weight_shape_rejected(self, rng):
        x = Tensor(rng.normal(size=(4, 3)))
        with pytest.raises(ValueError, match="one entry per pair"):
            pair_aggregate(Tensor(np.ones(7)), x, PAIR_ROWS, PAIR_COLS, 5)
        with pytest.raises(ValueError, match="1-D weights"):
            pair_aggregate(Tensor(np.ones((8, 1))), x, PAIR_ROWS, PAIR_COLS, 5)

    @pytest.mark.usefixtures("float64")
    def test_grads(self, rng):
        weights = Tensor(rng.normal(size=PAIR_ROWS.size), requires_grad=True)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        probe = Tensor(rng.normal(size=(5, 3)))
        gradcheck(lambda w, v: pair_aggregate(w, v, PAIR_ROWS, PAIR_COLS, 5)
                  * probe, [weights, x])
        assert np.all(x.grad[0] == 0.0)

    @pytest.mark.usefixtures("float64")
    def test_grads_with_plans(self, rng):
        plans = SegmentPlan(PAIR_ROWS, 5), SegmentPlan(PAIR_COLS, 4)
        weights = Tensor(rng.normal(size=PAIR_ROWS.size), requires_grad=True)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        probe = Tensor(rng.normal(size=(5, 3)))
        gradcheck(lambda w, v: pair_aggregate(w, v, PAIR_ROWS, PAIR_COLS, 5,
                                              *plans) * probe, [weights, x])


def _edge_case_graph():
    """Nine nodes, six edges: node 0 isolated, edge 2 empty, edges 4 and 5
    with a single member each, and the largest edge holding five nodes."""
    dense = np.zeros((9, 6))
    dense[[1, 2, 3, 5, 8], 0] = 1.0
    dense[[2, 4, 6], 1] = 1.0
    dense[[3, 7], 3] = 1.0
    dense[5, 4] = 1.0
    dense[6, 5] = 1.0
    return Hypergraph(sp.csr_matrix(dense), np.array([0, 1, 0, -1, 1, 0]),
                      np.zeros(6, dtype=np.int64))


def _gather_chain_forward(layer, x):
    """The layer's forward as it ran before the pair ops: per-pair gathers,
    products and segment sums, built from public ops only."""
    node_idx, edge_idx = layer.node_index, layer.edge_index
    scale = 1.0 / np.sqrt(layer.dim)
    edge_seed = sparse_mm(layer.edge_mean, x) + layer.type_embedding(layer.edge_type)
    queries = layer.n2e_query(edge_seed)
    keys = layer.n2e_key(x)
    values = layer.n2e_value(x)
    scores = (queries[edge_idx] * keys[node_idx]).sum(axis=-1) * scale
    alpha = segment_softmax(scores, edge_idx, layer.num_edges)
    edge_repr = segment_sum(values[node_idx] * alpha.expand_dims(-1),
                            edge_idx, layer.num_edges)
    edge_repr = edge_repr + edge_seed
    node_queries = layer.e2n_query(x)
    edge_keys = layer.e2n_key(edge_repr)
    edge_values = layer.e2n_value(edge_repr)
    scores = (node_queries[node_idx] * edge_keys[edge_idx]).sum(axis=-1) * scale
    beta = segment_softmax(scores, node_idx, layer.num_nodes)
    node_update = segment_sum(edge_values[edge_idx] * beta.expand_dims(-1),
                              node_idx, layer.num_nodes)
    x = x + layer.prop_gate * sparse_mm(layer.propagation, x)
    x = x + layer.attn_gate * layer.dropout(node_update)
    return x + layer.ffn_gate * layer.dropout(layer.ffn(layer.ffn_norm(x)))


class TestLayerMatchesGatherChain:
    """The pair-op layer against the gather chain it replaced, in float32."""

    DIM = 8
    LARGEST_SEGMENT = 5  # the largest edge of _edge_case_graph
    # Both paths run in float32 and differ only in summation order.  A float32
    # sum of n terms moves by at most ~n·eps times the sum of its magnitudes;
    # the layer sums over at most LARGEST_SEGMENT pairs and DIM coordinates,
    # and 16x covers the amplification through softmax, layer norm and FFN.
    TOL = 16 * np.finfo(np.float32).eps * (LARGEST_SEGMENT + DIM)

    def _run(self, layer, forward, x_data, probe):
        for p in layer.parameters():
            p.grad = None
        x = Tensor(x_data.copy(), requires_grad=True)
        out = forward(x)
        (out * probe).sum().backward()
        grads = {name: p.grad.copy() for name, p in layer.named_parameters()}
        grads["x"] = x.grad.copy()
        return out.numpy().copy(), grads

    def _assert_close(self, new, old, what):
        err = np.abs(new - old).max()
        assert err <= self.TOL * max(1.0, np.abs(old).max()), (what, err)

    def test_output_and_every_gradient(self, rng):
        graph = _edge_case_graph()
        assert graph.edge_sizes().max() == self.LARGEST_SEGMENT
        layer = HypergraphTransformerLayer(self.DIM, graph, 3, rng)
        # Open every gate fully so the attention path dominates the output.
        for gate in (layer.prop_gate, layer.attn_gate, layer.ffn_gate):
            gate.data[...] = 1.0
        x_data = rng.normal(size=(9, self.DIM)).astype(np.float32)
        probe = Tensor(rng.normal(size=(9, self.DIM)))
        new_out, new_grads = self._run(layer, layer, x_data, probe)
        old_out, old_grads = self._run(
            layer, lambda x: _gather_chain_forward(layer, x), x_data, probe)
        assert new_out.dtype == np.float32
        self._assert_close(new_out, old_out, "output")
        assert new_grads.keys() == old_grads.keys()
        for name, grad in old_grads.items():
            assert np.any(grad != 0.0), name
            self._assert_close(new_grads[name], grad, name)

    def test_float32_throughout(self, rng, monkeypatch):
        # A float64 CSR (e.g. built from a dtype-less np.ones) would promote
        # every op downstream of it; leaf gradients are cast back on arrival,
        # so record the dtype of every gradient as it flows instead.
        layer = HypergraphTransformerLayer(self.DIM, _edge_case_graph(), 3, rng)
        x = Tensor(rng.normal(size=(9, self.DIM)), requires_grad=True)
        arrived = []
        accumulate = Tensor._accumulate

        def recording(tensor, grad):
            arrived.append(grad.dtype)
            accumulate(tensor, grad)

        monkeypatch.setattr(Tensor, "_accumulate", recording)
        out = layer(x)
        assert out.dtype == np.float32
        out.sum().backward()
        assert arrived and set(arrived) == {np.dtype(np.float32)}
        assert x.grad.dtype == np.float32
        assert all(p.grad.dtype == np.float32 for p in layer.parameters())
