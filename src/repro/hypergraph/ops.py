"""Differentiable sparse/segment primitives for hypergraph message passing.

Custom autodiff ops bridge sparse structures into the :mod:`repro.nn` graph:

* :func:`sparse_mm` — multiply a **constant** sparse matrix with a dense
  tensor (backward: transpose-multiply).
* :func:`segment_sum` — scatter-add rows into groups (backward: gather).
* :func:`segment_softmax` — softmax over variable-size groups, the core of
  attention on incidence structures (backward: per-group softmax Jacobian).
* :func:`pair_dot` / :func:`pair_aggregate` — the two halves of attention
  over a fixed list of ``(row, col)`` pairs (scores, then the weighted sum of
  values), each one node whose backward is CSR products, so no ``(pairs, D)``
  gather is built for the graph or kept for backward.

All segment kernels are scatter-free on the fast backend (CSR products /
``bincount``; see :mod:`repro.nn.scatter`) and accept an optional
precomputed :class:`~repro.nn.scatter.SegmentPlan` so static index
structures (the incidence COO pairs, identical every step) pay for their
sort exactly once.  The pair ops have no reference backend: they run the
same kernels under :func:`~repro.nn.scatter.scatter_backend` either way.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.nn.scatter import (SegmentPlan, scatter_add_1d, scatter_add_rows,
                              segment_max_1d)
from repro.nn.tensor import Tensor

__all__ = ["sparse_mm", "segment_sum", "segment_softmax", "segment_max",
           "pair_dot", "pair_aggregate", "SegmentPlan"]


def sparse_mm(matrix: sp.spmatrix, x: Tensor) -> Tensor:
    """``matrix @ x`` where ``matrix`` is a constant scipy sparse matrix.

    ``x`` is ``(N, D)``; the result is ``(M, D)`` for an ``(M, N)`` matrix.
    """
    matrix = matrix.tocsr()
    if matrix.shape[1] != x.shape[0]:
        raise ValueError(f"shape mismatch: {matrix.shape} @ {x.shape}")
    out = Tensor._make(np.asarray(matrix @ x.data), (x,), "sparse_mm")
    if out.requires_grad:
        # Cache the transpose on the matrix object: layers call sparse_mm
        # with the same constant matrix every step.
        transposed = getattr(matrix, "_repro_transpose_cache", None)
        if transposed is None:
            transposed = matrix.T.tocsr()
            matrix._repro_transpose_cache = transposed

        def _backward() -> None:
            x._accumulate(np.asarray(transposed @ out.grad))
        out._backward = _backward
    return out


def _check_segments(segment_ids: np.ndarray, num_segments: int,
                    plan: SegmentPlan | None) -> np.ndarray:
    if plan is not None:
        if plan.num_segments != num_segments or not (
                segment_ids is plan.segment_ids
                or np.array_equal(segment_ids, plan.segment_ids)):
            raise ValueError("segment plan does not match segment_ids")
        return plan.segment_ids
    segment_ids = np.asarray(segment_ids)
    if segment_ids.ndim != 1:
        raise ValueError("segment_ids must be 1-D")
    if segment_ids.size and (segment_ids.min() < 0 or segment_ids.max() >= num_segments):
        raise ValueError("segment id out of range")
    return segment_ids


def segment_sum(values: Tensor, segment_ids: np.ndarray, num_segments: int,
                plan: SegmentPlan | None = None) -> Tensor:
    """Sum rows of ``values`` ``(N, ...)`` into ``num_segments`` groups."""
    segment_ids = _check_segments(segment_ids, num_segments, plan)
    out_data = scatter_add_rows(segment_ids, values.data, num_segments, plan=plan)
    out = Tensor._make(out_data, (values,), "segment_sum")
    if out.requires_grad:
        def _backward() -> None:
            values._accumulate(out.grad[segment_ids])
        out._backward = _backward
    return out


def segment_max(values: np.ndarray, segment_ids: np.ndarray, num_segments: int,
                plan: SegmentPlan | None = None) -> np.ndarray:
    """Per-segment maximum of a raw 1-D array (non-differentiable helper)."""
    return segment_max_1d(values, segment_ids, num_segments, plan=plan)


def segment_softmax(scores: Tensor, segment_ids: np.ndarray, num_segments: int,
                    plan: SegmentPlan | None = None) -> Tensor:
    """Softmax of 1-D ``scores`` within each segment.

    Entries sharing a segment id compete in one softmax; the output sums to 1
    within every non-empty segment.  Numerically stabilized with a per-segment
    max shift.
    """
    segment_ids = _check_segments(segment_ids, num_segments, plan)
    if scores.ndim != 1:
        raise ValueError("segment_softmax expects 1-D scores")
    shift = segment_max_1d(scores.data, segment_ids, num_segments, plan=plan)
    exp = np.exp(scores.data - shift[segment_ids])
    denom = scatter_add_1d(segment_ids, exp, num_segments)
    value = exp / denom[segment_ids]
    out = Tensor._make(value, (scores,), "segment_softmax")
    if out.requires_grad:
        def _backward() -> None:
            g = out.grad
            s = out.data
            weighted = scatter_add_1d(segment_ids, g * s, num_segments)
            scores._accumulate(s * (g - weighted[segment_ids]))
        out._backward = _backward
    return out


def _pair_plans(rows: np.ndarray, cols: np.ndarray, num_rows: int,
                num_cols: int, row_plan: SegmentPlan | None,
                col_plan: SegmentPlan | None) -> tuple[SegmentPlan, SegmentPlan]:
    """Validated row-grouped and column-grouped plans of one pair list."""
    rows = _check_segments(rows, num_rows, row_plan)
    cols = _check_segments(cols, num_cols, col_plan)
    if rows.size != cols.size:
        raise ValueError("rows and cols must list the same number of pairs")
    if row_plan is None:
        row_plan = SegmentPlan(rows, num_rows)
    if col_plan is None:
        col_plan = SegmentPlan(cols, num_cols)
    return row_plan, col_plan


# Pairs per block of _row_dots: the two (block, D) gathers stay in cache,
# which makes the blocked loop ~3x faster than one whole-list gather.
_ROW_DOT_BLOCK = 4096


def _row_dots(a: np.ndarray, b: np.ndarray, rows: np.ndarray,
              cols: np.ndarray) -> np.ndarray:
    """``⟨a[rows[p]], b[cols[p]]⟩`` for every pair ``p``."""
    out = np.empty(rows.size, dtype=np.result_type(a, b))
    for start in range(0, rows.size, _ROW_DOT_BLOCK):
        block = slice(start, start + _ROW_DOT_BLOCK)
        out[block] = np.einsum("pd,pd->p", np.take(a, rows[block], axis=0),
                               np.take(b, cols[block], axis=0))
    return out


def pair_dot(a: Tensor, b: Tensor, rows: np.ndarray, cols: np.ndarray,
             row_plan: SegmentPlan | None = None,
             col_plan: SegmentPlan | None = None) -> Tensor:
    """``s[p] = ⟨a[rows[p]], b[cols[p]]⟩`` over a fixed list of pairs.

    ``a`` is ``(R, D)``, ``b`` is ``(C, D)``; the result is 1-D with one
    score per pair.  ``row_plan`` / ``col_plan`` group the pairs by row and
    by column (built here when not given): the backward is one CSR product
    per operand, ``grad_a = S @ b`` and ``grad_b = Sᵀ @ a`` with ``S[r, c]``
    holding the pair gradients, laid out from each side's plan.
    """
    row_plan, col_plan = _pair_plans(rows, cols, a.shape[0], b.shape[0],
                                     row_plan, col_plan)
    rows, cols = row_plan.segment_ids, col_plan.segment_ids
    out = Tensor._make(_row_dots(a.data, b.data, rows, cols), (a, b),
                       "pair_dot")
    if out.requires_grad:
        def _backward() -> None:
            g = out.grad
            if a.requires_grad:
                a._accumulate(row_plan.matrix(g, cols, b.shape[0]) @ b.data)
            if b.requires_grad:
                b._accumulate(col_plan.matrix(g, rows, a.shape[0]) @ a.data)
        out._backward = _backward
    return out


def pair_aggregate(weights: Tensor, x: Tensor, rows: np.ndarray,
                   cols: np.ndarray, num_rows: int,
                   row_plan: SegmentPlan | None = None,
                   col_plan: SegmentPlan | None = None) -> Tensor:
    """``out[r] = Σ_{p: rows[p] = r} weights[p] · x[cols[p]]``.

    ``weights`` is 1-D with one entry per pair and ``x`` is ``(C, D)``; the
    result is ``(num_rows, D)``, zero for rows without pairs.  The forward
    is one CSR product laid out from ``row_plan``; the backward is one CSR
    product from ``col_plan`` for ``x`` and a row-wise dot for ``weights``.
    """
    if weights.ndim != 1:
        raise ValueError("pair_aggregate expects 1-D weights")
    row_plan, col_plan = _pair_plans(rows, cols, num_rows, x.shape[0],
                                     row_plan, col_plan)
    rows, cols = row_plan.segment_ids, col_plan.segment_ids
    if weights.shape[0] != rows.size:
        raise ValueError("weights must hold one entry per pair")
    value = row_plan.matrix(weights.data, cols, x.shape[0]) @ x.data
    out = Tensor._make(value, (weights, x), "pair_aggregate")
    if out.requires_grad:
        def _backward() -> None:
            g = out.grad
            if weights.requires_grad:
                weights._accumulate(_row_dots(g, x.data, rows, cols))
            if x.requires_grad:
                x._accumulate(col_plan.matrix(weights.data, rows, num_rows) @ g)
        out._backward = _backward
    return out
