"""Fast-vs-reference equivalence and gradient checks for the scatter kernels.

The fast backend (bincount / CSR product over a ``SegmentPlan`` layout)
must agree with the retained seed kernels (``np.add.at`` /
``np.maximum.at``) on every shape class the model produces: duplicate
indices, empty update sets, empty segments, padding rows, negative
indices, 3-D updates from ``take`` on ``(B, L)`` ids, and calls with a
precomputed plan.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hypergraph.ops import segment_softmax, segment_sum
from repro.nn.scatter import (SegmentPlan, get_scatter_backend, scatter_add_1d,
                              scatter_add_rows, scatter_backend, segment_max_1d,
                              set_scatter_backend)
from repro.nn.tensor import Tensor
from repro.utils.gradcheck import gradcheck


def _both_backends(fn):
    """Run ``fn()`` under each backend and return (fast, reference)."""
    with scatter_backend("fast"):
        fast = fn()
    with scatter_backend("reference"):
        reference = fn()
    return fast, reference


class TestBackendSelection:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown scatter backend"):
            set_scatter_backend("turbo")

    def test_context_manager_restores(self):
        before = get_scatter_backend()
        with scatter_backend("reference"):
            assert get_scatter_backend() == "reference"
        assert get_scatter_backend() == before


CASES_2D = pytest.mark.parametrize("num_updates,dim,num_rows", [
    (0, 4, 6),       # empty update set
    (1, 3, 1),       # single row
    (7, 5, 3),       # heavy duplicates
    (64, 8, 64),     # mostly unique
    (50, 2, 4),      # all rows hit many times
])


class TestScatterAddRows:
    @CASES_2D
    def test_matches_reference_2d(self, rng, num_updates, dim, num_rows):
        indices = rng.integers(0, num_rows, size=num_updates)
        updates = rng.standard_normal((num_updates, dim))
        fast, reference = _both_backends(
            lambda: scatter_add_rows(indices, updates, num_rows))
        assert fast.shape == reference.shape == (num_rows, dim)
        # Both add in position order, so they agree bitwise.
        np.testing.assert_array_equal(fast, reference)

    @CASES_2D
    def test_matches_reference_2d_with_plan(self, rng, num_updates, dim,
                                            num_rows):
        indices = rng.integers(0, num_rows, size=num_updates)
        updates = rng.standard_normal((num_updates, dim)).astype(np.float32)
        plan = SegmentPlan(indices, num_rows)
        fast, reference = _both_backends(
            lambda: scatter_add_rows(indices, updates, num_rows, plan=plan))
        assert fast.shape == reference.shape == (num_rows, dim)
        assert fast.dtype == np.float32
        np.testing.assert_array_equal(fast, reference)

    @pytest.mark.parametrize("with_plan", [False, True])
    def test_take_3d_updates_match_reference(self, rng, with_plan):
        # take() on (B, L) ids from an (N, H, D) table: the backward scatters
        # (B*L, H, D) updates by the flattened ids.
        indices = rng.integers(0, 7, size=(4, 5))
        updates = rng.standard_normal((20, 3, 2))
        plan = SegmentPlan(indices.ravel(), 7) if with_plan else None
        fast, reference = _both_backends(
            lambda: scatter_add_rows(indices, updates, 7, plan=plan))
        assert fast.shape == reference.shape == (7, 3, 2)
        np.testing.assert_array_equal(fast, reference)

    def test_empty_3d_updates(self):
        updates = np.zeros((0, 3, 2), dtype=np.float32)
        out = scatter_add_rows(np.zeros(0, dtype=np.int64), updates, 4)
        assert out.shape == (4, 3, 2) and out.dtype == np.float32
        assert np.all(out == 0.0)

    def test_padding_row_duplicates(self, rng):
        # Embedding backward repeatedly hits row 0 (the padding item).
        indices = np.zeros(20, dtype=np.int64)
        updates = rng.standard_normal((20, 4))
        fast, reference = _both_backends(
            lambda: scatter_add_rows(indices, updates, 5))
        np.testing.assert_allclose(fast, reference, atol=1e-12)
        assert np.all(fast[1:] == 0.0)

    def test_negative_indices_wrap(self, rng):
        indices = np.array([-1, 0, -3, 2])
        updates = rng.standard_normal((4, 3))
        fast, reference = _both_backends(
            lambda: scatter_add_rows(indices, updates, 4))
        np.testing.assert_allclose(fast, reference, atol=1e-12)
        np.testing.assert_allclose(fast[3], updates[0], atol=1e-12)

    def test_multi_dim_indices_flatten(self, rng):
        # take() backward reshapes (B, L, D) grads to rows; 2-D index arrays
        # must flatten consistently.
        indices = rng.integers(0, 6, size=(4, 5))
        updates = rng.standard_normal((20, 3))
        fast, reference = _both_backends(
            lambda: scatter_add_rows(indices, updates, 6))
        np.testing.assert_allclose(fast, reference, atol=1e-12)

    def test_dtype_preserved(self, rng):
        indices = rng.integers(0, 4, size=10)
        updates = rng.standard_normal((10, 2)).astype(np.float32)
        out = scatter_add_rows(indices, updates, 4)
        assert out.dtype == np.float32

    def test_plan_matches_planless(self, rng):
        indices = rng.integers(0, 9, size=40)
        updates = rng.standard_normal((40, 6))
        plan = SegmentPlan(indices, 9)
        with_plan = scatter_add_rows(indices, updates, 9, plan=plan)
        without = scatter_add_rows(indices, updates, 9)
        np.testing.assert_allclose(with_plan, without, atol=1e-12)


class TestScatterAdd1D:
    def test_matches_reference(self, rng):
        indices = rng.integers(0, 8, size=50)
        values = rng.standard_normal(50)
        fast, reference = _both_backends(
            lambda: scatter_add_1d(indices, values, 8))
        np.testing.assert_allclose(fast, reference, atol=1e-12)

    def test_float32_dtype_roundtrip(self, rng):
        # bincount computes in float64 internally; the result must come back
        # in the caller's dtype.
        values = rng.standard_normal(10).astype(np.float32)
        out = scatter_add_1d(np.arange(10) % 3, values, 3)
        assert out.dtype == np.float32

    def test_empty(self):
        out = scatter_add_1d(np.zeros(0, dtype=np.int64), np.zeros(0), 5)
        assert out.shape == (5,)
        assert np.all(out == 0.0)


class TestSegmentMax1D:
    def test_matches_reference_with_empty_segments(self, rng):
        # Segment 2 of 5 receives no entries and must keep the fill value.
        segment_ids = np.array([0, 0, 1, 3, 3, 3, 4])
        values = rng.standard_normal(7)
        fast, reference = _both_backends(
            lambda: segment_max_1d(values, segment_ids, 5))
        np.testing.assert_array_equal(fast, reference)
        assert fast[2] == -np.inf

    def test_custom_fill(self):
        out = segment_max_1d(np.array([1.0, 2.0]), np.array([0, 0]), 3, fill=0.0)
        np.testing.assert_array_equal(out, [2.0, 0.0, 0.0])

    def test_plan_matches_planless(self, rng):
        segment_ids = rng.integers(0, 6, size=30)
        values = rng.standard_normal(30)
        plan = SegmentPlan(segment_ids, 6)
        np.testing.assert_array_equal(
            segment_max_1d(values, segment_ids, 6, plan=plan),
            segment_max_1d(values, segment_ids, 6))


class TestSegmentPlan:
    def test_row_pointers_count_segments(self):
        plan = SegmentPlan(np.array([2, 0, 1, 0, 2]), 4)
        # Segment 3 is empty.
        np.testing.assert_array_equal(plan.indptr, [0, 2, 3, 5, 5])

    def test_sorted_ids_keep_identity_order(self):
        plan = SegmentPlan(np.array([0, 0, 1, 2, 2]), 3)
        np.testing.assert_array_equal(plan.order, np.arange(5))

    def test_unsorted_ids_get_stable_order(self):
        plan = SegmentPlan(np.array([2, 0, 1, 0]), 3)
        np.testing.assert_array_equal(plan.order, [1, 3, 2, 0])
        np.testing.assert_array_equal(plan.segment_ids[plan.order], [0, 0, 1, 2])

    def test_matrix_places_data_at_pairs(self):
        segment_ids = np.array([2, 0, 1, 0])
        columns = np.array([1, 3, 0, 3])
        data = np.array([1.0, 2.0, 3.0, 4.0])
        dense = SegmentPlan(segment_ids, 3).matrix(data, columns, 4).toarray()
        expected = np.zeros((3, 4))
        for s, c, d in zip(segment_ids, columns, data):
            expected[s, c] += d
        np.testing.assert_array_equal(dense, expected)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            SegmentPlan(np.array([0, 3]), 3)

    def test_mismatched_plan_rejected_by_ops(self, rng):
        values = Tensor(rng.standard_normal((4, 2)))
        plan = SegmentPlan(np.array([0, 1]), 2)
        with pytest.raises(ValueError, match="does not match"):
            segment_sum(values, np.array([0, 1, 0, 1]), 2, plan=plan)

    def test_plan_for_other_ids_of_same_size_rejected(self):
        # Same length and segment count, different ids: obeying the plan
        # would return [2, 4] instead of [1, 5].
        values = Tensor(np.array([[0.0], [1.0], [2.0], [3.0]]))
        plan = SegmentPlan(np.array([0, 1, 0, 1]), 2)
        with pytest.raises(ValueError, match="does not match"):
            segment_sum(values, np.array([0, 0, 1, 1]), 2, plan=plan)
        with pytest.raises(ValueError, match="does not match"):
            segment_softmax(Tensor(np.zeros(4)), np.array([0, 0, 1, 1]), 2,
                            plan=plan)

    def test_equal_ids_in_another_array_accepted(self):
        ids = np.array([0, 0, 1, 1])
        plan = SegmentPlan(ids, 2)
        values = Tensor(np.array([[0.0], [1.0], [2.0], [3.0]]))
        out = segment_sum(values, ids.astype(np.int32), 2, plan=plan)
        np.testing.assert_array_equal(out.data, [[1.0], [5.0]])


class TestSegmentOpsEquivalence:
    """Tensor-level segment ops: fast and reference paths agree end to end."""

    def _segment_case(self, rng, with_empty=True):
        # Segment 1 is left empty to exercise the empty-segment paths.
        segment_ids = np.array([0, 0, 2, 3, 3, 3, 2, 4])
        num_segments = 5 if with_empty else 4
        values = rng.standard_normal((8, 3))
        return segment_ids, num_segments, values

    def test_segment_sum_forward_backward(self, rng):
        segment_ids, num_segments, values = self._segment_case(rng)

        def run():
            x = Tensor(values.copy(), requires_grad=True)
            out = segment_sum(x, segment_ids, num_segments)
            (out * out).sum().backward()
            return out.data.copy(), x.grad.copy()

        (fast_out, fast_grad), (ref_out, ref_grad) = _both_backends(run)
        np.testing.assert_allclose(fast_out, ref_out, atol=1e-5)
        np.testing.assert_allclose(fast_grad, ref_grad, atol=1e-5)

    def test_segment_softmax_forward_backward(self, rng):
        segment_ids, num_segments, values = self._segment_case(rng)
        scores = values[:, 0]

        def run():
            x = Tensor(scores.copy(), requires_grad=True)
            out = segment_softmax(x, segment_ids, num_segments)
            (out * Tensor(np.arange(8.0))).sum().backward()
            return out.data.copy(), x.grad.copy()

        (fast_out, fast_grad), (ref_out, ref_grad) = _both_backends(run)
        np.testing.assert_allclose(fast_out, ref_out, atol=1e-5)
        np.testing.assert_allclose(fast_grad, ref_grad, atol=1e-5)

    def test_segment_softmax_normalizes_with_plan(self, rng):
        segment_ids = rng.integers(0, 4, size=32)
        plan = SegmentPlan(segment_ids, 4)
        x = Tensor(rng.standard_normal(32))
        out = segment_softmax(x, segment_ids, 4, plan=plan)
        sums = scatter_add_1d(segment_ids, out.data, 4)
        np.testing.assert_allclose(sums, np.ones(4), atol=1e-5)


class TestGradchecks:
    """fp64 finite-difference checks of the scatter-free backward kernels."""

    @pytest.mark.parametrize("backend", ["fast", "reference"])
    def test_segment_sum(self, float64, rng, backend):
        segment_ids = np.array([0, 2, 2, 0, 3])  # segment 1 empty
        x = Tensor(rng.standard_normal((5, 2)), requires_grad=True)
        with scatter_backend(backend):
            assert gradcheck(lambda t: segment_sum(t, segment_ids, 4), [x])

    @pytest.mark.parametrize("backend", ["fast", "reference"])
    def test_segment_sum_with_plan(self, float64, rng, backend):
        segment_ids = rng.integers(0, 3, size=7)
        plan = SegmentPlan(segment_ids, 3)
        x = Tensor(rng.standard_normal((7, 2)), requires_grad=True)
        with scatter_backend(backend):
            assert gradcheck(
                lambda t: segment_sum(t, segment_ids, 3, plan=plan), [x])

    @pytest.mark.parametrize("backend", ["fast", "reference"])
    def test_segment_softmax(self, float64, rng, backend):
        segment_ids = np.array([0, 0, 2, 2, 2, 3])  # segment 1 empty
        x = Tensor(rng.standard_normal(6), requires_grad=True)
        weights = Tensor(rng.standard_normal(6))
        with scatter_backend(backend):
            assert gradcheck(
                lambda t: segment_softmax(t, segment_ids, 4) * weights, [x])

    @pytest.mark.parametrize("backend", ["fast", "reference"])
    def test_take_backward(self, float64, rng, backend):
        # Embedding-style gather: 2-D indices with duplicates and the padding
        # row 0 hit repeatedly.
        indices = np.array([[0, 2, 0], [3, 2, 0]])
        x = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        with scatter_backend(backend):
            assert gradcheck(lambda t: t.take(indices, axis=0), [x])

    @pytest.mark.parametrize("backend", ["fast", "reference"])
    def test_getitem_backward(self, float64, rng, backend):
        indices = np.array([1, 1, 0, 3, 1])
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        with scatter_backend(backend):
            assert gradcheck(lambda t: t[indices], [x])


class TestGatherBackwardEquivalence:
    def test_take_grad_matches_reference(self, rng):
        indices = rng.integers(0, 10, size=(6, 4))

        def run():
            x = Tensor(rng_data.copy(), requires_grad=True)
            out = x.take(indices, axis=0)
            (out * out).sum().backward()
            return x.grad.copy()

        rng_data = rng.standard_normal((10, 5))
        fast, reference = _both_backends(run)
        np.testing.assert_allclose(fast, reference, atol=1e-5)

    def test_getitem_grad_matches_reference(self, rng):
        indices = np.array([0, 0, 0, 2, 5, 5])

        def run():
            x = Tensor(rng_data.copy(), requires_grad=True)
            (x[indices] * 3.0).sum().backward()
            return x.grad.copy()

        rng_data = rng.standard_normal((6, 3))
        fast, reference = _both_backends(run)
        np.testing.assert_allclose(fast, reference, atol=1e-5)

    def test_take_3d_table_grad_matches_reference(self, rng):
        # (B, L) ids into an (N, H, D) table: 3-D updates in the backward,
        # with the padding row 0 hit repeatedly and one row never hit.
        indices = np.array([[0, 3, 0, 1], [1, 0, 3, 3]])
        table = rng.standard_normal((5, 2, 3))

        def run():
            x = Tensor(table.copy(), requires_grad=True)
            out = x.take(indices, axis=0)
            (out * out).sum().backward()
            return x.grad.copy()

        fast, reference = _both_backends(run)
        np.testing.assert_allclose(fast, reference, atol=1e-5)
        assert np.all(fast[[2, 4]] == 0.0)
