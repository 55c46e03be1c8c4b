"""Tests for the input pipeline: packed collate, seeding and the loader."""

import numpy as np
import pytest

from repro.data import collate
from repro.data.pipeline import (PackedExamples, PrefetchLoader, batch_rng,
                                 epoch_order)


def _assert_batches_equal(a, b):
    assert (a.users == b.users).all()
    assert (a.targets == b.targets).all()
    assert set(a.items) == set(b.items)
    for behavior in a.items:
        assert (a.items[behavior] == b.items[behavior]).all()
        assert (a.masks[behavior] == b.masks[behavior]).all()
    assert (a.merged_items == b.merged_items).all()
    assert (a.merged_behaviors == b.merged_behaviors).all()
    assert (a.merged_mask == b.merged_mask).all()
    if a.candidates is None or b.candidates is None:
        assert a.candidates is None and b.candidates is None
    else:
        assert (a.candidates == b.candidates).all()


class TestPackedExamples:
    def test_collate_rows_matches_collate(self, tiny_dataset, tiny_split):
        packed = PackedExamples.from_examples(tiny_split.train, tiny_dataset.schema)
        rng = np.random.default_rng(0)
        for _ in range(5):
            rows = rng.choice(len(packed), size=9, replace=False)
            fast = packed.collate_rows(rows)
            reference = collate([tiny_split.train[i] for i in rows],
                                tiny_dataset.schema)
            _assert_batches_equal(fast, reference)

    def test_collate_rows_with_max_len(self, tiny_dataset, tiny_split):
        packed = PackedExamples.from_examples(tiny_split.train, tiny_dataset.schema)
        rows = np.arange(12)
        fast = packed.collate_rows(rows, max_len=3)
        reference = collate([tiny_split.train[i] for i in rows],
                            tiny_dataset.schema, max_len=3)
        _assert_batches_equal(fast, reference)

    def test_empty_rows_rejected(self, tiny_dataset, tiny_split):
        packed = PackedExamples.from_examples(tiny_split.train, tiny_dataset.schema)
        with pytest.raises(ValueError):
            packed.collate_rows(np.zeros(0, dtype=np.int64))


class TestSeeding:
    def test_batch_rng_streams_are_distinct(self):
        draws = {batch_rng(0, e, i).integers(0, 1 << 30)
                 for e in range(3) for i in range(3)}
        assert len(draws) == 9

    def test_epoch_order_is_a_permutation_and_reproducible(self):
        order = epoch_order(5, 2, 100, shuffle=True)
        assert sorted(order.tolist()) == list(range(100))
        assert (order == epoch_order(5, 2, 100, shuffle=True)).all()
        assert (epoch_order(5, 0, 10, shuffle=False) == np.arange(10)).all()


class TestPrefetchLoaderDeterminism:
    def _stream(self, split, dataset, seed=11, epochs=1):
        loader = PrefetchLoader(split.train, dataset.schema, batch_size=16,
                                seed=seed, negatives=4, dataset=dataset)
        return [batch for _ in range(epochs) for batch in loader]

    def test_same_seed_streams_are_bitwise_identical(self, tiny_dataset,
                                                     tiny_split):
        first = self._stream(tiny_split, tiny_dataset, epochs=2)
        second = self._stream(tiny_split, tiny_dataset, epochs=2)
        assert len(first) == len(second) > 0
        for a, b in zip(first, second):
            _assert_batches_equal(a, b)

    def test_epochs_reshuffle_but_replay_with_set_epoch(self, tiny_dataset, tiny_split):
        loader = PrefetchLoader(tiny_split.train, tiny_dataset.schema,
                                batch_size=16, seed=3)
        first = [b.users.copy() for b in loader]
        second = [b.users.copy() for b in loader]
        assert any((a != b).any() for a, b in zip(first, second))
        loader.set_epoch(0)
        replay = [b.users.copy() for b in loader]
        assert all((a == b).all() for a, b in zip(first, replay))

    def test_len_and_drop_last(self, tiny_dataset, tiny_split):
        n = len(tiny_split.train)
        loader = PrefetchLoader(tiny_split.train, tiny_dataset.schema,
                                batch_size=16)
        assert len(loader) == -(-n // 16) == len(list(loader))
        tail = PrefetchLoader(tiny_split.train, tiny_dataset.schema,
                              batch_size=16, drop_last=True)
        assert len(tail) == n // 16 == len(list(tail))

    def test_candidates_are_valid_negatives(self, tiny_dataset, tiny_split):
        for batch in self._stream(tiny_split, tiny_dataset):
            assert batch.candidates.shape == (batch.size, 5)
            assert (batch.candidates[:, 0] == batch.targets).all()
            negatives = batch.candidates[:, 1:]
            assert (negatives != batch.targets[:, None]).all()
            assert (negatives >= 1).all()
            # Distinct within each row.
            assert all(len(set(row)) == len(row) for row in negatives.tolist())

    def test_validation(self, tiny_dataset, tiny_split):
        with pytest.raises(ValueError):
            PrefetchLoader(tiny_split.train, tiny_dataset.schema, batch_size=0)
        with pytest.raises(ValueError):
            PrefetchLoader(tiny_split.train, tiny_dataset.schema, batch_size=8,
                           negatives=4)  # no dataset
