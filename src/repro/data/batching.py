"""Padded mini-batch assembly for multi-behavior sequence models.

A :class:`Batch` carries, for every behavior, a left-padded ``(B, L)`` item
matrix and validity mask, plus the fused cross-behavior timeline and the
prediction targets.  Left padding keeps the most recent event at the last
position, which is where causal sequence models read the user state.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from .schema import BehaviorSchema, PAD_ITEM
from .splits import SequenceExample

__all__ = ["Batch", "pad_sequences", "collate", "BatchLoader"]


def pad_sequences(sequences: Sequence[Sequence[int]], max_len: int | None = None,
                  pad_value: int = PAD_ITEM) -> tuple[np.ndarray, np.ndarray]:
    """Left-pad variable-length int sequences into ``(B, L)`` plus a mask.

    Returns ``(matrix, mask)`` where ``mask`` is True at real positions.
    ``max_len`` defaults to the longest sequence (minimum 1 so empty behavior
    streams still produce a well-formed column).

    The fill is vectorized: rows are flattened into one contiguous array and
    written through a boolean suffix mask in a single scatter, instead of one
    slice assignment per row.  Boolean assignment fills in row-major order,
    which is exactly the order of the flattened (truncated) rows.
    """
    batch = len(sequences)
    lengths = np.fromiter((len(s) for s in sequences), dtype=np.int64, count=batch)
    if max_len is None:
        max_len = int(lengths.max()) if batch else 1
    max_len = max(max_len, 1)
    matrix = np.full((batch, max_len), pad_value, dtype=np.int64)
    mask = np.zeros((batch, max_len), dtype=bool)
    clipped = np.minimum(lengths, max_len)
    total = int(clipped.sum())
    if total:
        np.greater_equal(np.arange(max_len, dtype=np.int64),
                         (max_len - clipped)[:, None], out=mask)
        if int(lengths.max()) <= max_len:
            flat_rows: Iterator = chain.from_iterable(sequences)
        else:
            flat_rows = chain.from_iterable(
                s[-max_len:] if len(s) > max_len else s for s in sequences)
        matrix[mask] = np.fromiter(flat_rows, dtype=np.int64, count=total)
    return matrix, mask


@dataclass
class Batch:
    """One mini-batch of next-item prediction examples."""

    users: np.ndarray                       # (B,)
    items: dict[str, np.ndarray]            # behavior -> (B, L_b) left-padded
    masks: dict[str, np.ndarray]            # behavior -> (B, L_b) bool
    merged_items: np.ndarray                # (B, L) fused timeline
    merged_behaviors: np.ndarray            # (B, L) behavior-type ids
    merged_mask: np.ndarray                 # (B, L) bool
    targets: np.ndarray                     # (B,)
    candidates: np.ndarray | None = None    # (B, 1+num_negatives) presampled
    """Optional presampled training candidates (positive in column 0), filled
    in by :class:`~repro.data.pipeline.PrefetchLoader` at batch assembly;
    ``sample_training_candidates`` consumes them when the width
    matches the requested negative count."""

    @property
    def size(self) -> int:
        return len(self.users)

    def behavior_names(self) -> list[str]:
        return list(self.items)


def collate(examples: Sequence[SequenceExample], schema: BehaviorSchema,
            max_len: int | None = None) -> Batch:
    """Assemble examples into a :class:`Batch`."""
    if not examples:
        raise ValueError("cannot collate an empty example list")
    items: dict[str, np.ndarray] = {}
    masks: dict[str, np.ndarray] = {}
    for behavior in schema.behaviors:
        matrix, mask = pad_sequences([e.inputs[behavior] for e in examples], max_len)
        items[behavior] = matrix
        masks[behavior] = mask
    merged_items, merged_mask = pad_sequences([e.merged_items for e in examples], max_len)
    merged_behaviors, _ = pad_sequences(
        [e.merged_behavior_ids for e in examples], merged_items.shape[1], pad_value=0
    )
    return Batch(
        users=np.array([e.user for e in examples], dtype=np.int64),
        items=items,
        masks=masks,
        merged_items=merged_items,
        merged_behaviors=merged_behaviors,
        merged_mask=merged_mask,
        targets=np.array([e.target for e in examples], dtype=np.int64),
    )


class BatchLoader:
    """Iterates a list of examples in shuffled mini-batches.

    The shuffle order is drawn from the provided generator, so epochs are
    reproducible given a seed; set ``shuffle=False`` for evaluation.
    """

    def __init__(self, examples: Sequence[SequenceExample], schema: BehaviorSchema,
                 batch_size: int, rng: np.random.Generator | None = None,
                 shuffle: bool = True, max_len: int | None = None,
                 drop_last: bool = False):
        if batch_size < 1:
            raise ValueError(f"batch size must be positive, got {batch_size}")
        if shuffle and rng is None:
            raise ValueError("shuffling requires an rng")
        self.examples = list(examples)
        self.schema = schema
        self.batch_size = batch_size
        self.rng = rng
        self.shuffle = shuffle
        self.max_len = max_len
        self.drop_last = drop_last

    def __len__(self) -> int:
        full, remainder = divmod(len(self.examples), self.batch_size)
        return full if (self.drop_last or remainder == 0) else full + 1

    def __iter__(self) -> Iterator[Batch]:
        order = np.arange(len(self.examples))
        if self.shuffle:
            self.rng.shuffle(order)
        for start in range(0, len(order), self.batch_size):
            chunk = order[start:start + self.batch_size]
            if self.drop_last and len(chunk) < self.batch_size:
                break
            yield collate([self.examples[i] for i in chunk], self.schema, self.max_len)
