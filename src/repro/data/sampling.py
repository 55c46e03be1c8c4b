"""Negative sampling for training and ranking evaluation."""

from __future__ import annotations

import numpy as np

from .dataset import MultiBehaviorDataset
from .splits import SequenceExample

__all__ = ["NegativeSampler"]


class NegativeSampler:
    """Samples items a user has NOT interacted with.

    Two modes:

    * ``uniform`` — every non-interacted item is equally likely (the protocol
      used for the 99-negative ranking evaluation).
    * ``popularity`` — items are drawn proportional to corpus popularity
      (harder negatives; used as a training option).

    Exclusion sets are **lazy and array-backed**: nothing is materialized at
    construction time, and the first request for a user's profile caches it
    as one sorted ``int64`` array.  Loader startup is therefore O(1) instead
    of O(total interactions), and memory stays one compact array per user
    actually sampled for — which matters when a worker pool instantiates a
    sampler per process over a corpus with millions of users.
    """

    def __init__(self, dataset: MultiBehaviorDataset, rng: np.random.Generator,
                 mode: str = "uniform"):
        if mode not in ("uniform", "popularity"):
            raise ValueError(f"unknown sampling mode {mode!r}")
        self.num_items = dataset.num_items
        self.rng = rng
        self.mode = mode
        self._dataset = dataset
        self._exclusions: dict[int, np.ndarray] = {}
        if mode == "popularity":
            counts = dataset.item_popularity().astype(np.float64)
            counts[0] = 0.0
            total = counts.sum()
            self._probs = counts / total if total > 0 else None
        else:
            self._probs = None

    def exclusion_array(self, user: int) -> np.ndarray:
        """Sorted unique item ids of ``user``'s profile (empty for unseen)."""
        cached = self._exclusions.get(user)
        if cached is None:
            if self._dataset.has_user(user):
                items = self._dataset.items_of_user(user)
                cached = np.fromiter(items, dtype=np.int64, count=len(items))
                cached.sort()
            else:
                cached = np.zeros(0, dtype=np.int64)
            self._exclusions[user] = cached
        return cached

    def user_items(self, user: int) -> set[int]:
        """The exclusion set for ``user`` (empty for unseen users)."""
        return set(self.exclusion_array(user).tolist())

    def sample(self, user: int, count: int, exclude: set[int] | None = None) -> np.ndarray:
        """Draw ``count`` distinct negatives for ``user``.

        ``exclude`` adds extra forbidden ids (e.g. the current positive).
        Falls back to allowing repeats only if the item space is too small,
        which cannot happen at realistic scales.
        """
        profile = self.exclusion_array(user)
        if exclude:
            forbidden = np.union1d(profile, np.fromiter(exclude, dtype=np.int64,
                                                        count=len(exclude)))
        else:
            forbidden = profile
        available = self.num_items - len(forbidden)
        if available < count:
            raise ValueError(
                f"cannot sample {count} negatives: only {available} items available"
            )
        chosen: list[int] = []
        seen: set[int] = set()
        # Rejection sampling: fast because forbidden sets are small relative
        # to the item vocabulary.  Membership tests against the sorted
        # exclusion array are one vectorized searchsorted per draw batch;
        # only the surviving candidates touch Python.
        batch = max(4 * count, 16)
        while len(chosen) < count:
            if self.mode == "popularity" and self._probs is not None:
                candidates = self.rng.choice(self.num_items + 1, size=batch, p=self._probs)
            else:
                candidates = self.rng.integers(1, self.num_items + 1, size=batch)
            for item in candidates[~self._member(forbidden, candidates)]:
                item = int(item)
                if item in seen:
                    continue
                chosen.append(item)
                seen.add(item)
                if len(chosen) == count:
                    break
        return np.array(chosen, dtype=np.int64)

    @staticmethod
    def _member(sorted_values: np.ndarray, queries: np.ndarray) -> np.ndarray:
        """Boolean membership of ``queries`` in a sorted unique array."""
        if sorted_values.size == 0:
            return np.zeros(queries.shape, dtype=bool)
        pos = np.searchsorted(sorted_values, queries)
        pos = np.minimum(pos, sorted_values.size - 1)
        return sorted_values[pos] == queries

    def sample_matrix(self, users: np.ndarray, targets: np.ndarray, count: int,
                      rng: np.random.Generator | None = None) -> np.ndarray:
        """Vectorized batch sampling: ``count`` distinct negatives per row.

        ``targets[i]`` is additionally excluded for row ``i``.  The whole
        batch is drawn with matrix-shaped generator calls and filtered with
        one searchsorted pass over row-keyed ids (``row * (num_items + 1) +
        item`` turns per-row membership into a single sorted lookup), so no
        per-item Python runs — this is the path
        :class:`~repro.data.pipeline.PrefetchLoader` uses.  Rows are statistically equivalent to :meth:`sample`
        but not bitwise-identical to it (different rejection order).

        ``rng`` overrides the sampler's generator (the pipeline passes a
        per-(epoch, batch) generator so a batch's negatives depend only on
        its position in the schedule).
        """
        rng = self.rng if rng is None else rng
        users = np.asarray(users, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        rows = users.shape[0]
        out = np.zeros((rows, count), dtype=np.int64)
        if rows == 0 or count == 0:
            return out
        stride = self.num_items + 1
        row_base = np.arange(rows, dtype=np.int64) * stride
        profiles = [self.exclusion_array(int(u)) for u in users]
        profile_sizes = np.fromiter((p.size for p in profiles), dtype=np.int64,
                                    count=rows)
        forbidden = np.concatenate(
            [p + base for p, base in zip(profiles, row_base)] + [row_base + targets]
        ) if rows else np.zeros(0, dtype=np.int64)
        forbidden.sort()
        target_in_profile = np.fromiter(
            (bool(self._member(p, t[None])[0]) for p, t in zip(profiles, targets)),
            dtype=bool, count=rows)
        available = self.num_items - profile_sizes - (~target_in_profile)
        if (available < count).any():
            worst = int(available.min())
            raise ValueError(
                f"cannot sample {count} negatives: only {worst} items available"
            )
        filled = np.zeros(rows, dtype=np.int64)
        chunk = max(2 * count, 16)
        for _ in range(64):
            if self.mode == "popularity" and self._probs is not None:
                draws = rng.choice(stride, size=(rows, chunk), p=self._probs)
                draws = draws.astype(np.int64, copy=False)
            else:
                draws = rng.integers(1, stride, size=(rows, chunk), dtype=np.int64)
            keys = row_base[:, None] + draws
            bad = self._member(forbidden, keys)
            # First occurrence wins among intra-chunk duplicates: sort each
            # row's keys, flag repeats, scatter the flags back.
            order = np.argsort(keys, axis=1, kind="stable")
            ranked = np.take_along_axis(keys, order, axis=1)
            dup_sorted = np.zeros_like(bad)
            dup_sorted[:, 1:] = ranked[:, 1:] == ranked[:, :-1]
            dup = np.zeros_like(bad)
            np.put_along_axis(dup, order, dup_sorted, axis=1)
            ok = ~(bad | dup)
            rank = np.cumsum(ok, axis=1)
            take = ok & (rank + filled[:, None] <= count)
            taken_rows, taken_cols = np.nonzero(take)
            out[taken_rows,
                filled[taken_rows] + rank[taken_rows, taken_cols] - 1] = \
                draws[taken_rows, taken_cols]
            filled += take.sum(axis=1)
            if (filled >= count).all():
                return out
            # Already-chosen keys join the forbidden set for the next round.
            forbidden = np.concatenate([forbidden, keys[take]])
            forbidden.sort()
        raise RuntimeError(          # pragma: no cover - 64 rounds ≫ worst case
            "negative sampling failed to converge; item space too constrained")

    def candidates_for(self, example: SequenceExample, num_negatives: int = 99) -> np.ndarray:
        """Ranking candidates ``[positive, neg_1, ..., neg_n]`` for one example."""
        negatives = self.sample(example.user, num_negatives, exclude={example.target})
        return np.concatenate([[example.target], negatives]).astype(np.int64)
