"""Versioned user-history store backing the online service.

The offline stack reads immutable :class:`~repro.data.dataset.MultiBehaviorDataset`
corpora; an online service needs histories that *grow* as events stream in,
plus a cheap way to know when a cached user representation went stale.
:class:`HistoryStore` keeps per-user, per-behavior event lists (seeded from a
dataset), a monotonically increasing **version** per user that bumps on every
append, and builds the exact same inference examples as
:func:`repro.recommend.build_inference_example` — so a service answer equals
the offline answer for an unmodified user.

Thread safety: the async network front-end interleaves cold-start appends
with encode-path reads from executor threads, so every accessor and the
append path run under one re-entrant store lock.  ``append`` in particular
is a read-modify-write (latest-timestamp read, list append, version bump)
that must be atomic — without the lock two concurrent appends could both
read version ``v`` and publish ``v + 1``, making one event invisible to the
``(user, version)`` cache key.  Contention is negligible: every critical
section is a few dict/list operations, orders of magnitude cheaper than the
encodes they synchronize against.  The lock is a
:func:`repro.obs.lockwatch.watched_rlock` so the runtime lock-order
watchdog can place it in the acquisition graph when enabled.
"""

from __future__ import annotations

from collections import defaultdict

from repro.data.dataset import MultiBehaviorDataset
from repro.data.schema import BehaviorSchema
from repro.data.splits import SequenceExample
from repro.obs.lockwatch import watched_rlock

__all__ = ["HistoryStore"]


class HistoryStore:
    """Mutable multi-behavior histories with per-user versioning."""

    def __init__(self, schema: BehaviorSchema, num_items: int):
        self.schema = schema
        self.num_items = int(num_items)
        self._sequences: dict[int, dict[str, list[tuple[int, int]]]] = {}
        self._seen: dict[int, set[int]] = defaultdict(set)
        self._versions: dict[int, int] = defaultdict(int)
        self._behavior_order = {b: i for i, b in enumerate(schema.behaviors)}
        self._lock = watched_rlock("serve.history.store")

    @classmethod
    def from_dataset(cls, dataset: MultiBehaviorDataset) -> "HistoryStore":
        """Seed the store from a corpus (histories copied, versions start 0)."""
        store = cls(dataset.schema, dataset.num_items)
        for user in dataset.users:
            store._sequences[user] = {
                behavior: list(dataset.sequence_with_times(user, behavior))
                for behavior in dataset.schema.behaviors
            }
            store._seen[user] = set(dataset.items_of_user(user))
        return store

    # ------------------------------------------------------------------
    # pickling (lock objects do not cross process/pickle boundaries)
    # ------------------------------------------------------------------
    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = watched_rlock("serve.history.store")

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def users(self) -> list[int]:
        with self._lock:
            users = list(self._sequences)
        return sorted(users)  # O(n log n) outside the critical section

    def has_user(self, user: int) -> bool:
        """True when the store holds any history for ``user``."""
        with self._lock:
            return user in self._sequences

    def version(self, user: int) -> int:
        """The user's history version (bumps on every append); 0 initially."""
        with self._lock:
            return self._versions[user]

    def seen(self, user: int) -> set[int]:
        """Items the user touched under any behavior (copy)."""
        with self._lock:
            return set(self._seen[user])

    def _last_timestamp(self, user: int) -> int:
        sequences = self._sequences.get(user)
        if not sequences:
            return 0
        stamps = [events[-1][1] for events in sequences.values() if events]
        return max(stamps) if stamps else 0

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def append(self, user: int, item: int, behavior: str,
               timestamp: int | None = None) -> int:
        """Record one new event and bump the user's version.

        ``timestamp`` defaults to one past the user's latest event; explicit
        timestamps must be non-decreasing (an online log never rewrites the
        past).  Unknown users are created — the online cold-start path.
        Returns the new version.
        """
        if behavior not in self._behavior_order:
            raise KeyError(f"unknown behavior {behavior!r}; schema has "
                           f"{self.schema.behaviors}")
        if not 1 <= item <= self.num_items:
            raise ValueError(f"item id {item} outside [1, {self.num_items}]")
        with self._lock:
            last = self._last_timestamp(user)
            if timestamp is None:
                timestamp = last + 1
            elif timestamp < last:
                raise ValueError(f"timestamp {timestamp} precedes the user's "
                                 f"latest event at {last}")
            if user not in self._sequences:
                self._sequences[user] = {b: [] for b in self.schema.behaviors}
            self._sequences[user][behavior].append((item, timestamp))
            self._seen[user].add(item)
            self._versions[user] += 1
            return self._versions[user]

    # ------------------------------------------------------------------
    # inference examples
    # ------------------------------------------------------------------
    def example(self, user: int, max_len: int = 50) -> SequenceExample:
        """The user's full-history inference example.

        Field-for-field identical to
        :func:`repro.recommend.build_inference_example` for a user whose
        history has not been modified since :meth:`from_dataset`.
        """
        with self._lock:
            if user not in self._sequences:
                raise KeyError(f"user {user} not in the history store")
            sequences = self._sequences[user]
            inputs = {
                behavior: tuple(item for item, _ in sequences[behavior][-max_len:])
                for behavior in self.schema.behaviors
            }
            triples = [
                (item, behavior, ts)
                for behavior in self.schema.behaviors
                for item, ts in sequences[behavior]
            ]
        triples.sort(key=lambda t: (t[2], self._behavior_order[t[1]]))
        merged = [(item, self.schema.behavior_id(behavior))
                  for item, behavior, _ in triples][-max_len:]
        return SequenceExample(
            user=user,
            inputs=inputs,
            merged_items=tuple(item for item, _ in merged),
            merged_behavior_ids=tuple(bid for _, bid in merged),
            target=1,  # placeholder; never read at inference
        )
