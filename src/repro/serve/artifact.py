"""Frozen inference artifacts: export a trained model for online serving.

An *inference artifact* is everything the request path needs and nothing it
does not: the (hypergraph-enhanced) item table precomputed once at export
time, the sequence-encoder and interest-extraction weights, and a JSON
manifest with the schema and the inference-relevant config.  The hypergraph
transformer — the most expensive part of a MISSL forward — never runs at
serve time; its output is baked into the item table, MB-HT style.

On disk an artifact is one compressed ``.npz`` file (format_version 1),
reusing the ``.npz`` + ``__meta__`` convention of
:mod:`repro.nn.serialization`: inspectable with plain NumPy, loadable
without constructing the autodiff graph, and checksummed — zip stores a
CRC-32 per array, so a damaged file is refused at load instead of serving
wrong scores.
"""

from __future__ import annotations

import json
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.data.schema import BehaviorSchema

__all__ = ["InferenceArtifact", "export_artifact", "write_artifact",
           "load_artifact", "ARTIFACT_FORMAT_VERSION"]

ARTIFACT_FORMAT_VERSION = 1

_META_KEY = "__meta__"
_TABLE_KEY = "item_table"
_PARAM_PREFIX = "param/"

# Parameter sub-trees a MISSL artifact must carry.  ``item_embedding`` and
# ``hg_encoder`` are deliberately absent: their effect is frozen into the
# exported item table.
_MISSL_SERVING_PREFIXES = (
    "seq_embedding.", "encoders.", "fused_encoder.", "interest_extractor.",
    "behavior_extractors.", "fusion_gate.",
)


@dataclass(frozen=True)
class InferenceArtifact:
    """A frozen, autodiff-free snapshot of a trained recommender.

    Attributes:
        family: model family tag (``"missl"``) selecting the serving encoder.
        item_table: ``(num_items + 1, D)`` frozen item representations
            (row 0 is padding), already hypergraph-enhanced.
        params: flat name → array map of the serving-path weights.
        config: inference-relevant hyper-parameters (JSON manifest).
        behaviors / target: the behavior schema.
        num_items: item vocabulary size.
        extra: free-form provenance metadata recorded at export time
            (e.g. dataset preset / scale / seed for corpus reconstruction).
    """

    family: str
    item_table: np.ndarray
    params: dict[str, np.ndarray]
    config: dict
    behaviors: tuple[str, ...]
    target: str
    num_items: int
    extra: dict = field(default_factory=dict)

    @property
    def schema(self) -> BehaviorSchema:
        """The behavior schema reconstructed from the manifest."""
        return BehaviorSchema(behaviors=self.behaviors, target=self.target)

    @property
    def dim(self) -> int:
        return int(self.item_table.shape[1])

    @property
    def num_interests(self) -> int:
        return int(self.config["num_interests"])

    def item_vectors(self) -> np.ndarray:
        """The ``(num_items, D)`` catalog block (padding row stripped);
        row ``i`` is item ``i + 1``."""
        return self.item_table[1:]


def _serving_state(model) -> dict[str, np.ndarray]:
    state = model.state_dict()
    kept = {name: value for name, value in state.items()
            if name.startswith(_MISSL_SERVING_PREFIXES)}
    if not kept:
        raise ValueError("model exposes no serving-path parameters to export")
    return kept


def write_artifact(artifact: InferenceArtifact, path: str | Path) -> Path:
    """Write an in-memory artifact to ``path`` (``.npz`` suffix enforced);
    returns the written path."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    meta = {
        "family": artifact.family,
        "config": artifact.config,
        "schema": {"behaviors": list(artifact.behaviors),
                   "target": artifact.target},
        "num_items": int(artifact.num_items),
        "parameters": sorted(artifact.params),
        "extra": artifact.extra,
        "format": "npz",
        "format_version": ARTIFACT_FORMAT_VERSION,
    }
    arrays = {_PARAM_PREFIX + name: value
              for name, value in artifact.params.items()}
    arrays[_TABLE_KEY] = artifact.item_table
    arrays[_META_KEY] = np.frombuffer(json.dumps(meta).encode(),
                                      dtype=np.uint8)
    np.savez_compressed(path, **arrays)
    return path


def export_artifact(model, path: str | Path,
                    extra: dict | None = None) -> Path:
    """Freeze a trained MISSL into an inference artifact at ``path``.

    Runs the hypergraph enhancement once (eval mode, no grad) to materialize
    the item table, keeps only the request-path parameter sub-trees, and
    writes the artifact via :func:`write_artifact`.  The model's train/eval
    mode is restored on exit.  Returns the written path.
    """
    from repro.core.model import MISSL
    from repro.nn.tensor import no_grad

    if not isinstance(model, MISSL):
        raise TypeError(
            f"artifact export currently supports MISSL models, got "
            f"{type(model).__name__}; extend repro.serve.encoder with a "
            f"family encoder to serve other models")

    was_training = bool(model.training)
    model.eval()
    with no_grad():
        table = np.array(model.item_representations().numpy(), copy=True)
    if was_training:
        model.train()

    config = dict(model.config.__dict__)
    config["active_behaviors"] = list(model.active_behaviors)
    artifact = InferenceArtifact(
        family="missl",
        item_table=table,
        params=_serving_state(model),
        config=config,
        behaviors=tuple(model.schema.behaviors),
        target=model.schema.target,
        num_items=int(model.num_items),
        extra=extra or {},
    )
    return write_artifact(artifact, path)


def load_artifact(path: str | Path) -> InferenceArtifact:
    """Load an artifact written by :func:`write_artifact`.

    Pure NumPy: no model construction, no autodiff graph.  Every array is
    read (and its zip CRC-32 checked) here.  Raises ``ValueError`` naming
    ``path`` on a damaged or truncated file, missing metadata or an
    unsupported format version.
    """
    path = Path(path)
    try:
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
    except (zipfile.BadZipFile, zlib.error, EOFError, ValueError) as error:
        # zip checks each member's CRC-32 as it is read, so a flipped bit
        # or a truncated file lands here, not in a served score.
        raise ValueError(f"damaged artifact {path}: {error}") from error
    if _META_KEY not in arrays:
        raise ValueError(f"{path} is not a repro inference artifact "
                         f"(missing metadata)")
    meta = json.loads(bytes(arrays[_META_KEY].tobytes()).decode())
    version = meta.get("format_version")
    if version != ARTIFACT_FORMAT_VERSION:
        raise ValueError(f"artifact format {version} unsupported "
                         f"(expected {ARTIFACT_FORMAT_VERSION})")
    if _TABLE_KEY not in arrays:
        raise ValueError(f"{path} has no item table")
    return InferenceArtifact(
        family=meta["family"],
        item_table=arrays[_TABLE_KEY],
        params={name: arrays[_PARAM_PREFIX + name]
                for name in meta["parameters"]},
        config=meta["config"],
        behaviors=tuple(meta["schema"]["behaviors"]),
        target=meta["schema"]["target"],
        num_items=int(meta["num_items"]),
        extra=meta.get("extra", {}),
    )
