"""Synthetic multi-behavior dataset generators.

The MISSL paper evaluates on public e-commerce logs (Taobao / Tmall / Yelp).
Those dumps are not available offline, so this module generates interaction
logs from an explicit user-behavior model that plants the three structural
properties the multi-behavior multi-interest literature exploits:

1. **Latent multi-interest structure** — items belong to interest clusters;
   each user is a sparse mixture over a few clusters.  Multi-interest models
   (K > 1 interest vectors) should therefore beat single-vector models.
2. **Behavior funnel** — dense, noisy auxiliary behaviors (``view``) foreshadow
   the sparse target behavior (``buy``): a purchased item was usually viewed
   (sometimes carted/faved) earlier, either in the same session or a previous
   one.  Multi-behavior models that read the auxiliary stream should beat
   target-only models.
3. **Heavy-tailed popularity and behavior noise** — item popularity within a
   cluster is Zipf-distributed, and a fraction of views are uniform-random
   "accidental clicks", so robust interest extraction matters.

Three presets mirror the relative scale/behavior-mix of the public datasets
(scaled down so CPU training finishes in seconds):

========  ===========================  =========================
preset    behaviors (target last)      character
========  ===========================  =========================
taobao    view, cart, fav, buy         very dense views, sparse buys
tmall     view, fav, cart, buy         moderate views, funnel heavier
yelp      view, like, tip              short sequences, 3 behaviors
========  ===========================  =========================
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import MultiBehaviorDataset
from .schema import BehaviorSchema, Interaction, TAOBAO_SCHEMA, TMALL_SCHEMA, YELP_SCHEMA

__all__ = ["SyntheticConfig", "generate", "taobao_like", "tmall_like", "yelp_like",
           "DATASET_PRESETS"]


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs of the generative model.

    Attributes:
        num_users / num_items: vocabulary sizes (items are 1-based).
        num_interests: number of latent item clusters planted in the corpus.
        interests_per_user: how many clusters a user's mixture touches.
        sessions_per_user: mean number of browsing sessions (Poisson).
        session_length: mean views per session (Poisson, min 1).
        funnel: per-auxiliary-behavior conditional probability that a view is
            escalated one funnel stage (e.g. ``{"cart": 0.25, "fav": 0.35}``
            means view→cart w.p. 0.25 and cart→fav w.p. 0.35).  Stages are
            the schema's auxiliary behaviors after ``view``, in order.
        target_per_session: probability a session ends with a target event.
        delayed_target_fraction: of target events, the fraction that purchase
            an item viewed in an *earlier* session instead of the current one
            (prevents "copy the last view" from being a perfect strategy).
        fresh_target_fraction: of target events, the fraction that purchase a
            **novel** item drawn from the user's current interest cluster
            rather than something already viewed.  This caps what pure
            memorization (ItemKNN-style "recommend what they touched") can
            achieve and rewards genuine interest modeling, mirroring the
            discovery component of real purchase logs.
        noise_rate: probability a view is a uniform-random accidental click.
        popularity_alpha: Zipf exponent of within-cluster item popularity.
        min_target_events: users are topped up to at least this many target
            events so leave-one-out splitting always has train/valid/test.
        interest_drift: probability per session that the user's mixture is
            re-drawn (models evolving interests).
        schema: the behavior vocabulary; first behavior must be the dense
            root of the funnel (``view``).
    """

    num_users: int = 200
    num_items: int = 400
    num_interests: int = 4
    interests_per_user: int = 2
    sessions_per_user: float = 6.0
    session_length: float = 6.0
    funnel: dict[str, float] = field(default_factory=lambda: {"cart": 0.3, "fav": 0.4})
    target_per_session: float = 0.55
    delayed_target_fraction: float = 0.5
    fresh_target_fraction: float = 0.35
    noise_rate: float = 0.1
    popularity_alpha: float = 1.2
    min_target_events: int = 3
    interest_drift: float = 0.05
    schema: BehaviorSchema = TAOBAO_SCHEMA
    name: str = "synthetic"

    def __post_init__(self) -> None:
        if self.num_interests < 1:
            raise ValueError("need at least one interest cluster")
        if not 1 <= self.interests_per_user <= self.num_interests:
            raise ValueError("interests_per_user must be in [1, num_interests]")
        if not 0.0 <= self.noise_rate < 1.0:
            raise ValueError(f"noise_rate out of range: {self.noise_rate}")
        for stage in self.funnel:
            if stage not in self.schema.behaviors:
                raise ValueError(f"funnel stage {stage!r} not in schema {self.schema.behaviors}")


def _cluster_assignments(config: SyntheticConfig, rng: np.random.Generator) -> np.ndarray:
    """Assign each item (1-based) to an interest cluster, roughly evenly."""
    clusters = np.arange(1, config.num_items + 1) % config.num_interests
    rng.shuffle(clusters)
    return clusters


def _cdf(probs: np.ndarray) -> np.ndarray:
    """The cumulative table ``Generator.choice(p=probs)`` searches, built the
    same way, so :func:`_draw` reproduces its draws bit for bit."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw(rng: np.random.Generator, cdf: np.ndarray) -> int:
    """One index drawn from ``cdf``: the draw ``rng.choice(cdf.size, p=...)``
    makes (one ``random()`` call, searched from the right) without
    re-validating and re-summing the probabilities on every call."""
    return int(cdf.searchsorted(rng.random(), side="right"))


def _cluster_sampling_tables(config: SyntheticConfig, clusters: np.ndarray
                             ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-cluster (item_ids, popularity CDF) with Zipf popularity."""
    tables = []
    for c in range(config.num_interests):
        item_ids = np.flatnonzero(clusters == c) + 1  # back to 1-based ids
        ranks = np.arange(1, item_ids.size + 1, dtype=np.float64)
        weights = ranks ** (-config.popularity_alpha)
        tables.append((item_ids, _cdf(weights / weights.sum())))
    return tables


def _draw_user_mixture(config: SyntheticConfig, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A user's sparse interest mixture: (active clusters, mixture CDF)."""
    active = rng.choice(config.num_interests, size=config.interests_per_user, replace=False)
    weights = rng.dirichlet(np.ones(config.interests_per_user) * 2.0)
    return active, _cdf(weights)


def generate(config: SyntheticConfig, seed: int = 0) -> MultiBehaviorDataset:
    """Generate a :class:`MultiBehaviorDataset` from the planted-structure model."""
    rng = np.random.default_rng(seed)
    clusters = _cluster_assignments(config, rng)
    tables = _cluster_sampling_tables(config, clusters)
    schema = config.schema
    # Funnel stages: auxiliary behaviors beyond the dense root, in schema order.
    root = schema.behaviors[0]
    stages = [b for b in schema.behaviors[1:] if b != schema.target]
    target = schema.target

    events: list[Interaction] = []
    for user in range(config.num_users):
        active, mixture = _draw_user_mixture(config, rng)
        clock = 0
        past_views: list[int] = []
        user_targets = 0
        num_sessions = max(1, rng.poisson(config.sessions_per_user))
        for _ in range(num_sessions):
            if rng.random() < config.interest_drift:
                active, mixture = _draw_user_mixture(config, rng)
            cluster = int(active[_draw(rng, mixture)])
            item_ids, popularity = tables[cluster]
            length = max(1, rng.poisson(config.session_length))
            session_views: list[int] = []
            for _ in range(length):
                if rng.random() < config.noise_rate:
                    item = int(rng.integers(1, config.num_items + 1))
                else:
                    item = int(item_ids[_draw(rng, popularity)])
                clock += 1
                events.append(Interaction(user, item, root, clock))
                session_views.append(item)
                # Escalate through the funnel stages with conditional probs.
                for stage in stages:
                    if rng.random() < config.funnel.get(stage, 0.0):
                        clock += 1
                        events.append(Interaction(user, item, stage, clock))
                    else:
                        break
            past_views.extend(session_views)
            if rng.random() < config.target_per_session:
                roll = rng.random()
                if roll < config.fresh_target_fraction:
                    # Discovery purchase: an item from the active cluster,
                    # drawn uniformly — unlike views, purchases of new items
                    # are not popularity-driven, which plants the tail-item
                    # signal that graph-propagation methods exploit.
                    bought = int(rng.choice(item_ids))
                elif past_views and roll < config.fresh_target_fraction \
                        + config.delayed_target_fraction:
                    bought = int(past_views[rng.integers(0, len(past_views))])
                else:
                    bought = int(session_views[rng.integers(0, len(session_views))])
                clock += 1
                events.append(Interaction(user, bought, target, clock))
                user_targets += 1
        # Top up users whose random draw produced too few target events.
        while user_targets < config.min_target_events:
            if past_views:
                bought = int(past_views[rng.integers(0, len(past_views))])
            else:
                bought = int(rng.integers(1, config.num_items + 1))
            clock += 1
            events.append(Interaction(user, bought, target, clock))
            user_targets += 1

    dataset = MultiBehaviorDataset(events, schema, config.num_items, name=config.name)
    # Attach ground truth for analysis experiments (F6 uses cluster labels).
    dataset.item_clusters = clusters  # type: ignore[attr-defined]
    return dataset


# ----------------------------------------------------------------------
# presets
# ----------------------------------------------------------------------

def taobao_like(scale: float = 1.0) -> SyntheticConfig:
    """Taobao-flavoured preset: four behaviors, very dense views, sparse buys.

    Calibrated so that (i) the item space is large and popularity flat enough
    that pure co-occurrence methods cannot saturate, and (ii) users mix
    several of many interest clusters, so multi-interest models have an edge.
    """
    return SyntheticConfig(
        num_users=int(350 * scale),
        num_items=int(900 * scale),
        num_interests=12,
        interests_per_user=3,
        sessions_per_user=8.0,
        session_length=6.0,
        funnel={"cart": 0.25, "fav": 0.35},
        target_per_session=0.7,
        delayed_target_fraction=0.45,
        fresh_target_fraction=0.35,
        noise_rate=0.12,
        popularity_alpha=0.8,
        min_target_events=4,
        schema=TAOBAO_SCHEMA,
        name="taobao-like",
    )


def tmall_like(scale: float = 1.0) -> SyntheticConfig:
    """Tmall-flavoured preset: funnel-heavy, fav before cart."""
    return SyntheticConfig(
        num_users=int(300 * scale),
        num_items=int(800 * scale),
        num_interests=10,
        interests_per_user=2,
        sessions_per_user=7.0,
        session_length=5.0,
        funnel={"fav": 0.3, "cart": 0.45},
        target_per_session=0.7,
        delayed_target_fraction=0.4,
        fresh_target_fraction=0.35,
        noise_rate=0.1,
        popularity_alpha=0.8,
        min_target_events=4,
        schema=TMALL_SCHEMA,
        name="tmall-like",
    )


def yelp_like(scale: float = 1.0) -> SyntheticConfig:
    """Yelp-flavoured preset: three behaviors, shorter sequences, more noise."""
    return SyntheticConfig(
        num_users=int(280 * scale),
        num_items=int(600 * scale),
        num_interests=8,
        interests_per_user=3,
        sessions_per_user=6.0,
        session_length=4.0,
        funnel={"like": 0.35},
        target_per_session=0.65,
        delayed_target_fraction=0.4,
        fresh_target_fraction=0.4,
        noise_rate=0.15,
        popularity_alpha=0.8,
        min_target_events=4,
        schema=YELP_SCHEMA,
        name="yelp-like",
    )


DATASET_PRESETS = {
    "taobao": taobao_like,
    "tmall": tmall_like,
    "yelp": yelp_like,
}
