"""Artifact-backed user encoders: multi-interest vectors without autodiff.

A *serving encoder* turns a collated :class:`~repro.data.batching.Batch` into
``(B, K, D)`` fused multi-interest vectors using only the frozen arrays of an
:class:`~repro.serve.artifact.InferenceArtifact` and the NumPy kernels in
:mod:`repro.serve.ops`.  The MISSL encoder below reproduces
``MISSL.user_representation`` in eval mode exactly (same op order, same
dtype), which is what makes exact-backend serving provably equal to the
offline :func:`repro.recommend.recommend` path.

New model families plug in via :func:`register_encoder`.
"""

from __future__ import annotations

import numpy as np

from repro.data.batching import Batch

from . import ops
from .artifact import InferenceArtifact

__all__ = ["MisslServingEncoder", "build_encoder", "register_encoder"]

FUSED_KEY = "__fused__"


class MisslServingEncoder:
    """NumPy-only replica of the MISSL interest pipeline (eval mode).

    Pipeline per call: per-behavior sequence embedding → causal transformer
    encoding → multi-interest extraction (prototype attention or dynamic
    routing), the fused cross-behavior timeline, and the slot-aligned gated
    fusion of auxiliary interests into the target interests.  The hypergraph
    stage never runs — the artifact's item table already carries it.
    """

    def __init__(self, artifact: InferenceArtifact):
        if artifact.family != "missl":
            raise ValueError(f"MisslServingEncoder cannot serve family "
                             f"{artifact.family!r}")
        self.artifact = artifact
        config = artifact.config
        self.table = artifact.item_table
        self.params = dict(artifact.params)
        self.schema = artifact.schema
        self.dim = artifact.dim
        self.max_len = int(config["max_len"])
        self.num_heads = int(config["num_heads"])
        self.seq_layers = int(config["seq_layers"])
        self.num_interests = int(config["num_interests"])
        self.interest_mode = config.get("interest_mode", "attention")
        self.routing_iterations = int(config.get("routing_iterations", 3))
        self.use_auxiliary = bool(config["use_auxiliary"])
        self.use_shared_fusion = bool(config["use_shared_fusion"])
        self.shared_prototypes = bool(config.get("shared_prototypes", True))
        self.score_mode = config.get("score_mode", "max")
        self.score_pow = float(config.get("score_pow", 1.0))
        self.active_behaviors = tuple(config["active_behaviors"])
        self._encoder_of = {b: i for i, b in enumerate(self.active_behaviors)}

    # ------------------------------------------------------------------
    # pipeline stages
    # ------------------------------------------------------------------
    def _clip(self, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
        return tuple(a[:, -self.max_len:] for a in arrays)

    def _embed(self, items: np.ndarray, behavior: str | np.ndarray) -> np.ndarray:
        """Mirror of ``core.embedding.SequenceEmbedding`` (dropout = identity)."""
        batch, length = items.shape
        if length > self.max_len:
            raise ValueError(f"sequence length {length} exceeds max_len "
                             f"{self.max_len}")
        vectors = np.take(self.table, items, axis=0)
        positions = np.arange(self.max_len - length, self.max_len, dtype=np.intp)
        vectors = vectors + self.params["seq_embedding.position.weight"][positions]
        if isinstance(behavior, str):
            type_ids = np.full((batch, length), self.schema.behavior_id(behavior),
                               dtype=np.int64)
        else:
            type_ids = np.asarray(behavior)
        vectors = vectors + self.params["seq_embedding.behavior.weight"][type_ids]
        return ops.layer_norm(vectors, self.params["seq_embedding.norm.gamma"],
                              self.params["seq_embedding.norm.beta"])

    def _encode(self, states: np.ndarray, mask: np.ndarray, prefix: str
                ) -> np.ndarray:
        return ops.transformer_encoder(states, mask, self.params, prefix,
                                       self.seq_layers, self.num_heads,
                                       causal=True)

    def _extract_attention(self, states: np.ndarray, valid_mask: np.ndarray,
                           prefix: str) -> np.ndarray:
        """Mirror of ``core.interest.MultiInterestExtractor.forward``."""
        prototypes = self.params[f"{prefix}prototypes"]
        keys = ops.linear(states, self.params[f"{prefix}key_proj.weight"])
        scores = keys @ prototypes.T
        scores = scores * np.asarray(1.0 / np.sqrt(self.dim), dtype=scores.dtype)
        blocked = ~valid_mask.astype(bool)
        empty_rows = blocked.all(axis=1)
        if empty_rows.any():
            blocked = blocked.copy()
            blocked[empty_rows] = False
        scores = ops.masked_fill(scores, blocked[:, :, None])
        attention = ops.softmax(scores, axis=1)
        interests = attention.swapaxes(1, 2) @ states
        return ops.linear(interests, self.params[f"{prefix}out_proj.weight"])

    def _extract_routing(self, states: np.ndarray, valid_mask: np.ndarray,
                         prefix: str) -> np.ndarray:
        """Mirror of ``core.routing.DynamicRoutingExtractor.forward``."""
        batch, length, _ = states.shape
        messages = ops.linear(states, self.params[f"{prefix}bilinear.weight"])
        valid = valid_mask.astype(messages.dtype)[:, :, None]
        prior = self.params[f"{prefix}logit_prior"]
        logits = prior[None, None, :] + np.zeros(
            (batch, length, self.num_interests), dtype=prior.dtype)

        def squash(x: np.ndarray) -> np.ndarray:
            squared = (x * x).sum(axis=-1, keepdims=True)
            norm = np.sqrt(squared + 1e-9)
            return x * (squared / (1.0 + squared) / norm)

        capsules = None
        for iteration in range(self.routing_iterations):
            weights = ops.softmax(logits, axis=2) * valid
            capsules = squash(weights.swapaxes(1, 2) @ messages)
            if iteration < self.routing_iterations - 1:
                logits = logits + messages @ capsules.swapaxes(1, 2)
        return capsules

    def _extract(self, states: np.ndarray, valid_mask: np.ndarray,
                 behavior: str | None) -> np.ndarray:
        if self.shared_prototypes or behavior is None:
            prefix = "interest_extractor."
        else:
            prefix = f"behavior_extractors.{self._encoder_of[behavior]}."
        if self.interest_mode == "routing":
            return self._extract_routing(states, valid_mask, prefix)
        return self._extract_attention(states, valid_mask, prefix)

    # ------------------------------------------------------------------
    # public surface
    # ------------------------------------------------------------------
    def behavior_interests(self, batch: Batch) -> dict[str, np.ndarray]:
        """Per-behavior ``(B, K, D)`` interests (plus the fused timeline's
        under ``"__fused__"``), mirroring ``MISSL.behavior_interests``."""
        interests: dict[str, np.ndarray] = {}
        for behavior in self.active_behaviors:
            items, mask = self._clip(batch.items[behavior], batch.masks[behavior])
            states = self._embed(items, behavior)
            encoded = self._encode(states, mask,
                                   f"encoders.{self._encoder_of[behavior]}.")
            interests[behavior] = self._extract(encoded, mask, behavior)
        if self.use_auxiliary:
            merged_items, merged_behaviors, merged_mask = self._clip(
                batch.merged_items, batch.merged_behaviors, batch.merged_mask)
            behaviors = np.where(merged_mask, merged_behaviors, 0)
            states = self._embed(merged_items, behaviors)
            encoded = self._encode(states, merged_mask, "fused_encoder.")
            interests[FUSED_KEY] = self._extract(encoded, merged_mask, None)
        return interests

    def interests(self, batch: Batch) -> np.ndarray:
        """Fused ``(B, K, D)`` user interests, mirroring
        ``MISSL.user_representation`` (gated slot-aligned fusion)."""
        extracted = self.behavior_interests(batch)
        target = extracted[self.schema.target]
        if not self.use_auxiliary or not self.use_shared_fusion:
            return target
        fused = target
        views: list[tuple[np.ndarray, np.ndarray]] = []
        for behavior in self.schema.auxiliary:
            if behavior in extracted:
                views.append((extracted[behavior],
                              batch.masks[behavior].any(axis=1)))
        if FUSED_KEY in extracted:
            views.append((extracted[FUSED_KEY], batch.merged_mask.any(axis=1)))
        gate_weight = self.params["fusion_gate.weight"]
        gate_bias = self.params["fusion_gate.bias"]
        for aux, has_rows in views:
            gate = ops.sigmoid(ops.linear(
                np.concatenate([target, aux], axis=-1), gate_weight, gate_bias))
            gate = gate * has_rows.astype(target.dtype)[:, None, None]
            fused = fused + gate * aux
        return fused

    def score_items(self, interests: np.ndarray, item_vectors: np.ndarray
                    ) -> np.ndarray:
        """Readout scores ``(..., N)`` of interests against ``(N, D)`` items."""
        per_interest = interests @ item_vectors.swapaxes(-1, -2)
        return ops.interest_readout(per_interest, self.score_mode, self.score_pow)


_ENCODERS = {"missl": MisslServingEncoder}


def register_encoder(family: str, factory) -> None:
    """Register a serving encoder factory for a model family."""
    _ENCODERS[family] = factory


def build_encoder(artifact: InferenceArtifact):
    """Instantiate the serving encoder for an artifact's model family."""
    try:
        factory = _ENCODERS[artifact.family]
    except KeyError:
        raise ValueError(
            f"no serving encoder registered for family {artifact.family!r}; "
            f"known families: {sorted(_ENCODERS)}") from None
    return factory(artifact)
