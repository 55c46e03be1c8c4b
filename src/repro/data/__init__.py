"""``repro.data`` — multi-behavior interaction data model and pipelines.

Flow: :func:`~repro.data.synthetic.generate` (or any loader producing
:class:`~repro.data.schema.Interaction` events) → :class:`MultiBehaviorDataset`
→ :func:`k_core_filter` / :func:`truncate_history` → :func:`leave_one_out_split`
→ :class:`BatchLoader` / :class:`PrefetchLoader` batches consumed by models.

:mod:`~repro.data.pipeline` holds the training input path: CSR-packed
examples with a fully vectorized collate and a loader with deterministic
per-``(epoch, batch)`` seeding.
"""

from .batching import Batch, BatchLoader, collate, pad_sequences
from .pipeline import PackedExamples, PrefetchLoader
from .dataset import DatasetStats, MultiBehaviorDataset
from .loaders import UB_BEHAVIOR_MAP, load_interaction_csv, load_user_behavior_csv
from .preprocessing import drop_holdout_targets, k_core_filter, remap_ids, truncate_history
from .sampling import NegativeSampler
from .schema import (PAD_ITEM, TAOBAO_SCHEMA, TMALL_SCHEMA, YELP_SCHEMA, BehaviorSchema,
                     Interaction)
from .splits import DataSplit, SequenceExample, leave_one_out_split, temporal_split
from .synthetic import (DATASET_PRESETS, SyntheticConfig, generate, taobao_like, tmall_like,
                        yelp_like)

__all__ = [
    "Interaction", "BehaviorSchema", "PAD_ITEM",
    "TAOBAO_SCHEMA", "TMALL_SCHEMA", "YELP_SCHEMA",
    "MultiBehaviorDataset", "DatasetStats",
    "load_interaction_csv", "load_user_behavior_csv", "UB_BEHAVIOR_MAP",
    "SyntheticConfig", "generate", "taobao_like", "tmall_like", "yelp_like",
    "DATASET_PRESETS",
    "k_core_filter", "truncate_history", "remap_ids", "drop_holdout_targets",
    "DataSplit", "SequenceExample", "leave_one_out_split", "temporal_split",
    "NegativeSampler",
    "Batch", "BatchLoader", "collate", "pad_sequences",
    "PackedExamples", "PrefetchLoader",
]
