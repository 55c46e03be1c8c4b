"""Vectorized batch pipeline: CSR-packed examples and the training loader.

Training batches are assembled without per-row Python:

* :class:`PackedExamples` — the example list flattened into CSR arrays so a
  mini-batch is assembled with pure NumPy gathers (no per-row Python), the
  vectorized collate shared by training, evaluation and serving-style reuse.
* :class:`PrefetchLoader` — a loader that shuffles, collates and
  (optionally) presamples negative candidates.

Determinism: every batch's randomness is derived from ``(seed, epoch,
batch_index)`` alone (:func:`batch_rng` / :func:`epoch_order`), satisfying
the ``SEEDED-RANDOMNESS`` discipline with explicit generators throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .batching import Batch
from .sampling import NegativeSampler
from .schema import BehaviorSchema, PAD_ITEM
from .splits import SequenceExample

__all__ = [
    "PackedExamples",
    "PrefetchLoader",
    "batch_rng",
    "epoch_order",
]

_MASK32 = 0xFFFFFFFF


def batch_rng(seed: int, epoch: int, index: int) -> np.random.Generator:
    """Generator for batch ``index`` of ``epoch``.

    The entropy is the ``(seed, epoch, index)`` triple, so the stream a batch
    draws (negative candidates today; augmentations tomorrow) is a pure
    function of its position in the schedule.  ``index`` 0 is reserved for
    the epoch shuffle (:func:`epoch_order`); batch streams start at 1.
    """
    entropy = (seed & _MASK32, epoch & _MASK32, index & _MASK32)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def epoch_order(seed: int, epoch: int, count: int, shuffle: bool) -> np.ndarray:
    """The example visiting order for one epoch (identity when not shuffling)."""
    if not shuffle:
        return np.arange(count, dtype=np.int64)
    return batch_rng(seed, epoch, 0).permutation(count).astype(np.int64, copy=False)


# ----------------------------------------------------------------------
# Vectorized collate over CSR-packed examples
# ----------------------------------------------------------------------

def _pack(sequences: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Flatten variable-length rows into CSR ``(data, indptr)`` arrays."""
    count = len(sequences)
    lengths = np.zeros(count + 1, dtype=np.int64)
    for row, seq in enumerate(sequences):
        lengths[row + 1] = len(seq)
    indptr = np.cumsum(lengths)
    data = np.zeros(int(indptr[-1]), dtype=np.int64)
    for row, seq in enumerate(sequences):
        data[indptr[row]:indptr[row + 1]] = seq
    return data, indptr


def _gather_padded(data: np.ndarray, indptr: np.ndarray, rows: np.ndarray,
                   max_len: int | None, pad_value: int = PAD_ITEM,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Left-padded ``(len(rows), L)`` matrix + mask from CSR storage.

    Pure array ops: the trailing ``min(length, L)`` entries of every row are
    gathered with one fancy-index expression built from repeat/cumsum
    arithmetic — the CSR twin of :func:`repro.data.batching.pad_sequences`
    with identical left-padding and truncation semantics.
    """
    lengths = indptr[rows + 1] - indptr[rows]
    if max_len is None:
        max_len = int(lengths.max()) if rows.size else 1
    max_len = max(max_len, 1)
    clipped = np.minimum(lengths, max_len)
    matrix = np.full((len(rows), max_len), pad_value, dtype=np.int64)
    mask = np.zeros((len(rows), max_len), dtype=bool)
    total = int(clipped.sum())
    if total:
        starts = indptr[rows + 1] - clipped          # trailing-window start
        row_of = np.repeat(np.arange(len(rows), dtype=np.int64), clipped)
        offsets = np.concatenate([np.zeros(1, dtype=np.int64),
                                  np.cumsum(clipped)[:-1]])
        within = np.arange(total, dtype=np.int64) - np.repeat(offsets, clipped)
        cols = (max_len - clipped)[row_of] + within
        matrix[row_of, cols] = data[np.repeat(starts, clipped) + within]
        mask[row_of, cols] = True
    return matrix, mask


@dataclass
class PackedExamples:
    """A list of :class:`SequenceExample` flattened into contiguous arrays.

    Built once per split and collated into batches with
    :meth:`collate_rows` — which produces batches identical to
    :func:`repro.data.batching.collate` on the same rows but touches no
    per-row Python.
    """

    schema: BehaviorSchema
    users: np.ndarray                                  # (N,)
    targets: np.ndarray                                # (N,)
    behaviors: dict[str, tuple[np.ndarray, np.ndarray]]  # name -> (data, indptr)
    merged_items: tuple[np.ndarray, np.ndarray]        # (data, indptr)
    merged_behaviors: np.ndarray                       # data aligned with merged indptr

    @classmethod
    def from_examples(cls, examples: Sequence[SequenceExample],
                      schema: BehaviorSchema) -> "PackedExamples":
        """Flatten ``examples`` (one pass per field) into CSR storage."""
        behaviors = {
            behavior: _pack([e.inputs[behavior] for e in examples])
            for behavior in schema.behaviors
        }
        merged_items = _pack([e.merged_items for e in examples])
        merged_behaviors, _ = _pack([e.merged_behavior_ids for e in examples])
        return cls(
            schema=schema,
            users=np.fromiter((e.user for e in examples), dtype=np.int64,
                              count=len(examples)),
            targets=np.fromiter((e.target for e in examples), dtype=np.int64,
                                count=len(examples)),
            behaviors=behaviors,
            merged_items=merged_items,
            merged_behaviors=merged_behaviors,
        )

    def __len__(self) -> int:
        return len(self.users)

    def collate_rows(self, rows: np.ndarray, max_len: int | None = None) -> Batch:
        """Assemble the batch for example indices ``rows`` (order preserved)."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            raise ValueError("cannot collate an empty example list")
        items: dict[str, np.ndarray] = {}
        masks: dict[str, np.ndarray] = {}
        for behavior, (data, indptr) in self.behaviors.items():
            items[behavior], masks[behavior] = _gather_padded(
                data, indptr, rows, max_len)
        merged_data, merged_indptr = self.merged_items
        merged_items, merged_mask = _gather_padded(merged_data, merged_indptr,
                                                   rows, max_len)
        merged_behaviors, _ = _gather_padded(self.merged_behaviors, merged_indptr,
                                             rows, merged_items.shape[1],
                                             pad_value=0)
        return Batch(
            users=self.users[rows],
            items=items,
            masks=masks,
            merged_items=merged_items,
            merged_behaviors=merged_behaviors,
            merged_mask=merged_mask,
            targets=self.targets[rows],
        )


# ----------------------------------------------------------------------
# Prefetching loader
# ----------------------------------------------------------------------

def _assemble(packed: PackedExamples, sampler: NegativeSampler | None,
              negatives: int, seed: int, max_len: int | None,
              epoch: int, index: int, rows: np.ndarray) -> Batch:
    """Build batch ``index`` of ``epoch`` with randomness derived only from
    ``(seed, epoch, index)``."""
    batch = packed.collate_rows(rows, max_len)
    if negatives and sampler is not None:
        rng = batch_rng(seed, epoch, index + 1)
        negs = sampler.sample_matrix(batch.users, batch.targets, negatives, rng=rng)
        batch.candidates = np.concatenate([batch.targets[:, None], negs], axis=1)
    return batch


class PrefetchLoader:
    """Shuffled mini-batches assembled with vectorized CSR gathers.

    The training loop's loader: collate (and optional negative
    presampling) runs in-process on :class:`PackedExamples`, and for a fixed
    ``seed`` the batch stream is a pure function of ``(seed, epoch)``.

    Each completed iteration advances the epoch (resettable via
    :meth:`set_epoch`), so consecutive passes see different shuffles exactly
    like the ``rng``-driven ``BatchLoader``.

    Args:
        examples: the split to iterate.
        schema: behavior vocabulary (collate layout).
        batch_size: rows per batch.
        seed: base seed; all shuffle/sampling randomness derives from it.
        shuffle: visit examples in a per-epoch permutation (evaluation
            passes set False).
        max_len: optional padding cap (defaults to per-batch max length).
        drop_last: drop the trailing partial batch.
        negatives: per-row negatives to presample into ``Batch.candidates``
            (0 disables; requires ``dataset``).
        dataset: interaction corpus backing the negative sampler.
        sampling_mode: ``NegativeSampler`` mode for presampling.
    """

    def __init__(self, examples: Sequence[SequenceExample], schema: BehaviorSchema,
                 batch_size: int, seed: int = 0, shuffle: bool = True,
                 max_len: int | None = None, drop_last: bool = False,
                 negatives: int = 0, dataset=None, sampling_mode: str = "uniform"):
        if batch_size < 1:
            raise ValueError(f"batch size must be positive, got {batch_size}")
        if negatives < 0:
            raise ValueError(f"negatives must be >= 0, got {negatives}")
        if negatives and dataset is None:
            raise ValueError("presampling negatives requires the dataset")
        self.packed = PackedExamples.from_examples(examples, schema)
        self.schema = schema
        self.batch_size = batch_size
        self.seed = seed
        self.shuffle = shuffle
        self.max_len = max_len
        self.drop_last = drop_last
        self.negatives = negatives
        self.sampler = (NegativeSampler(dataset, np.random.default_rng(0),
                                        mode=sampling_mode)
                        if negatives else None)
        self._epoch = 0

    # -- epoch bookkeeping ---------------------------------------------
    @property
    def epoch(self) -> int:
        """The epoch the next iteration will use."""
        return self._epoch

    def set_epoch(self, epoch: int) -> None:
        """Pin the next iteration's epoch (resume / replay support)."""
        self._epoch = epoch

    def __len__(self) -> int:
        full, remainder = divmod(len(self.packed), self.batch_size)
        return full if (self.drop_last or remainder == 0) else full + 1

    def _epoch_chunks(self, epoch: int) -> list[np.ndarray]:
        order = epoch_order(self.seed, epoch, len(self.packed), self.shuffle)
        chunks = []
        for start in range(0, len(order), self.batch_size):
            chunk = order[start:start + self.batch_size]
            if self.drop_last and len(chunk) < self.batch_size:
                break
            chunks.append(chunk)
        return chunks

    # -- iteration ------------------------------------------------------
    def __iter__(self) -> Iterator[Batch]:
        epoch = self._epoch
        self._epoch += 1
        return self._iter_epoch(epoch, self._epoch_chunks(epoch))

    def _iter_epoch(self, epoch: int, chunks: list[np.ndarray]) -> Iterator[Batch]:
        for index, rows in enumerate(chunks):
            yield _assemble(self.packed, self.sampler, self.negatives, self.seed,
                            self.max_len, epoch, index, rows)
