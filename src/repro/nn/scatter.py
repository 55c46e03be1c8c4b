"""Scatter/segment kernels with selectable fast and reference backends.

``np.ufunc.at`` is the canonical NumPy idiom for scatter-add but it is also
the slowest (unbuffered, element-at-a-time on NumPy builds without indexed
loops).  This module provides the scatter-free equivalents used by the hot
backward paths — embedding/``take`` gradients and the hypergraph segment ops:

* 1-D scatter-add via :func:`numpy.bincount`.
* Row scatter-add (2-D+) as a CSR product: a ``(num_rows, n)`` matrix of
  ones whose row ``r`` lists the update positions with index ``r``, times
  the ``(n, ...)`` updates.
* Segment max via the same grouping + :func:`numpy.maximum.reduceat`.

The original ``np.add.at`` / ``np.maximum.at`` kernels are retained as the
**reference** backend, selectable globally with :func:`set_scatter_backend`
or temporarily with the :func:`scatter_backend` context manager; the test
suite uses them to verify the fast paths.

For static index structures (hypergraph incidence COO pairs are identical
every step) a :class:`SegmentPlan` holds the CSR layout, built once, so the
per-step cost is the product alone.  ``scipy.sparse`` is imported on first
use, which keeps it off the import path of the serving tier.
"""

from __future__ import annotations

import contextlib

import numpy as np

__all__ = [
    "SegmentPlan",
    "scatter_add_rows",
    "scatter_add_1d",
    "scatter_add_at",
    "segment_max_1d",
    "set_scatter_backend",
    "get_scatter_backend",
    "scatter_backend",
]

_BACKENDS = ("fast", "reference")
_BACKEND = "fast"


def set_scatter_backend(name: str) -> None:
    """Select the scatter implementation: ``"fast"`` or ``"reference"``."""
    global _BACKEND
    if name not in _BACKENDS:
        raise ValueError(f"unknown scatter backend {name!r}; choose from {_BACKENDS}")
    _BACKEND = name


def get_scatter_backend() -> str:
    """Return the active scatter backend name."""
    return _BACKEND


@contextlib.contextmanager
def scatter_backend(name: str):
    """Temporarily switch the scatter backend (used by tests/benchmarks)."""
    previous = _BACKEND
    set_scatter_backend(name)
    try:
        yield
    finally:
        set_scatter_backend(previous)


def _normalize_indices(indices: np.ndarray, size: int) -> np.ndarray:
    """Flatten to 1-D intp and resolve negative indices (bincount rejects them)."""
    indices = np.asarray(indices).reshape(-1).astype(np.intp, copy=False)
    if indices.size and indices.min() < 0:
        indices = np.where(indices < 0, indices + size, indices)
    return indices


class SegmentPlan:
    """CSR layout of a static segment-id array.

    Row ``s`` of the layout lists the positions ``j`` with
    ``segment_ids[j] == s`` in their original order:
    ``order[indptr[s]:indptr[s + 1]]``.  Row pointers come from
    :func:`numpy.bincount`, the order from a stable sort, so a sum over a
    segment adds its terms in sequence, the same way on every call.
    Hypergraph layers call the segment ops with the same COO index arrays
    on every forward/backward pass; building the plan once at
    layer-construction time leaves each call with the product alone.
    """

    __slots__ = ("segment_ids", "num_segments", "order", "indptr")

    def __init__(self, segment_ids: np.ndarray, num_segments: int):
        segment_ids = np.asarray(segment_ids)
        if segment_ids.ndim != 1:
            raise ValueError("segment_ids must be 1-D")
        segment_ids = segment_ids.astype(np.intp, copy=False)
        if segment_ids.size and (segment_ids.min() < 0
                                 or segment_ids.max() >= num_segments):
            raise ValueError("segment id out of range")
        self.segment_ids = segment_ids
        self.num_segments = num_segments
        self.order = np.argsort(segment_ids, kind="stable")
        self.indptr = np.zeros(num_segments + 1, dtype=np.intp)
        np.cumsum(np.bincount(segment_ids, minlength=num_segments),
                  out=self.indptr[1:])

    def matrix(self, data: np.ndarray, columns: np.ndarray,
               num_columns: int):
        """CSR ``(num_segments, num_columns)`` with ``data[j]`` at
        ``(segment_ids[j], columns[j])``.

        ``data`` and ``columns`` are in position order.  With the positions
        themselves as columns and unit data, ``matrix(...) @ updates`` is
        the row scatter-add of ``updates``.
        """
        import scipy.sparse as sp

        return sp.csr_matrix((data[self.order], columns[self.order], self.indptr),
                             shape=(self.num_segments, num_columns))


def scatter_add_rows(indices: np.ndarray, updates: np.ndarray, num_rows: int,
                     plan: SegmentPlan | None = None) -> np.ndarray:
    """``out[indices[j]] += updates[j]`` into a fresh ``(num_rows, ...)`` array.

    ``indices`` is any integer array with ``indices.size == len(updates)``
    after flattening (negative values wrap, as with fancy indexing).  The
    fast backend multiplies the updates by the CSR matrix of ones that
    ``plan`` (built here when not given) lays out; 1-D updates go through
    ``np.bincount`` instead.  The reference backend is the seed's
    ``np.add.at``.
    """
    indices = _normalize_indices(indices, num_rows)
    updates = np.ascontiguousarray(updates)
    if _BACKEND == "reference":
        out = np.zeros((num_rows,) + updates.shape[1:], dtype=updates.dtype)
        np.add.at(out, indices, updates)
        return out
    if updates.ndim == 1:
        return scatter_add_1d(indices, updates, num_rows)
    if plan is None:
        plan = SegmentPlan(indices, num_rows)
    n = len(updates)
    # An explicit row width: reshape(0, -1) is ambiguous for empty updates.
    rows = updates.reshape(n, int(np.prod(updates.shape[1:])))
    ones = np.ones(n, dtype=updates.dtype)
    positions = np.arange(n, dtype=np.intp)
    return (plan.matrix(ones, positions, n) @ rows).reshape(
        (num_rows,) + updates.shape[1:])


def scatter_add_at(target: np.ndarray, index, updates: np.ndarray) -> None:
    """In-place ``target[index] += updates`` for *arbitrary* index expressions.

    The containment escape hatch for scatter-adds whose index is not a flat
    integer array (slices, tuples, boolean masks) and therefore cannot go
    through :func:`scatter_add_rows`.  This is the only sanctioned home of
    ``np.add.at`` outside this module's backends — the SCATTER-CONTAINMENT
    lint rule keeps every other call site out.
    """
    np.add.at(target, index, updates)


def scatter_add_1d(indices: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """1-D scatter-add via ``np.bincount`` (reference: ``np.add.at``)."""
    indices = _normalize_indices(indices, size)
    values = np.asarray(values)
    if _BACKEND == "reference":
        out = np.zeros(size, dtype=values.dtype)
        np.add.at(out, indices, values)
        return out
    # bincount always computes in float64; cast back to the input dtype.
    return np.bincount(indices, weights=values, minlength=size).astype(
        values.dtype, copy=False)


def segment_max_1d(values: np.ndarray, segment_ids: np.ndarray, num_segments: int,
                   plan: SegmentPlan | None = None,
                   fill: float = -np.inf) -> np.ndarray:
    """Per-segment maximum of a 1-D array; empty segments get ``fill``."""
    values = np.asarray(values)
    segment_ids = _normalize_indices(segment_ids, num_segments)
    if _BACKEND == "reference":
        out = np.full(num_segments, fill, dtype=values.dtype)
        np.maximum.at(out, segment_ids, values)
        return out
    if plan is None:
        plan = SegmentPlan(segment_ids, num_segments)
    out = np.full(num_segments, fill, dtype=values.dtype)
    present = np.flatnonzero(np.diff(plan.indptr))
    if present.size:
        out[present] = np.maximum.reduceat(values[plan.order],
                                           plan.indptr[present])
    return out
