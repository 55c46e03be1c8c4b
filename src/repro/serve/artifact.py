"""Frozen inference artifacts: export a trained model for online serving.

An *inference artifact* is everything the request path needs and nothing it
does not: the (hypergraph-enhanced) item table precomputed once at export
time, the sequence-encoder and interest-extraction weights, and a JSON
manifest with the schema and the inference-relevant config.  The hypergraph
transformer — the most expensive part of a MISSL forward — never runs at
serve time; its output is baked into the item table, MB-HT style.

Two on-disk formats:

* ``npz`` (format_version 1, legacy) — a single compressed file reusing the
  ``.npz`` + ``__meta__`` convention of :mod:`repro.nn.serialization`.
  Compact and copyable, but every loader decompresses a private copy of
  every array.
* ``dir`` (format_version 2) — a directory bundle: ``manifest.json`` plus
  one *uncompressed* ``.npy`` per array (item table, each parameter, and
  any serialized index structures).  Arrays load with ``mmap_mode="r"``,
  so processes on one host share page-cache pages instead of each holding
  a private copy, and prebuilt index structures (IVF centroids + lists,
  HNSW levels + adjacency, PQ/SQ codebooks + codes) re-attach in O(mmap)
  instead of re-running k-means / graph insertion at every load.

Both load through :func:`load_artifact`; both are inspectable with plain
NumPy and loadable without constructing the autodiff graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.data.schema import BehaviorSchema

from .index import SERIALIZABLE_BACKENDS, build_index

__all__ = ["InferenceArtifact", "export_artifact", "write_artifact",
           "load_artifact", "ARTIFACT_FORMAT_VERSION",
           "ARTIFACT_DIR_FORMAT_VERSION"]

ARTIFACT_FORMAT_VERSION = 1        # single-file .npz
ARTIFACT_DIR_FORMAT_VERSION = 2    # directory bundle of mmap-able .npy files

_META_KEY = "__meta__"
_TABLE_KEY = "item_table"
_PARAM_PREFIX = "param/"
_MANIFEST_NAME = "manifest.json"
_PARAMS_DIR = "params"
_INDEX_DIR = "index"

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
        fmt: on-disk format this instance came from (``"npz"`` or ``"dir"``;
            freshly exported, in-memory artifacts default to ``"npz"``).
        source: path the artifact was loaded from, if any.
        prebuilt: serialized index structures shipped in a ``dir`` bundle:
            backend name → ``{"meta": dict, "arrays": dict}`` as produced by
            the index ``state()`` methods.
    """

    family: str
    item_table: np.ndarray
    params: dict[str, np.ndarray]
    config: dict
    behaviors: tuple[str, ...]
    target: str
    num_items: int
    extra: dict = field(default_factory=dict)
    fmt: str = "npz"
    source: str | None = None
    prebuilt: dict = field(default_factory=dict)

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


def _manifest(artifact: InferenceArtifact) -> dict:
    return {
        "family": artifact.family,
        "config": artifact.config,
        "schema": {"behaviors": list(artifact.behaviors),
                   "target": artifact.target},
        "num_items": int(artifact.num_items),
        "parameters": sorted(artifact.params),
        "extra": artifact.extra,
    }


def _write_npz(artifact: InferenceArtifact, path: Path) -> Path:
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    meta = _manifest(artifact)
    meta["format"] = "npz"
    meta["format_version"] = ARTIFACT_FORMAT_VERSION
    arrays = {_PARAM_PREFIX + name: value
              for name, value in artifact.params.items()}
    arrays[_TABLE_KEY] = artifact.item_table
    arrays[_META_KEY] = np.frombuffer(json.dumps(meta).encode(),
                                      dtype=np.uint8)
    np.savez_compressed(path, **arrays)
    return path


def _write_dir(artifact: InferenceArtifact, path: Path,
               states: dict[str, tuple[dict, dict]]) -> Path:
    for name in artifact.params:
        if "/" in name or name.startswith("."):
            raise ValueError(f"parameter name {name!r} is not a safe "
                             f"bundle file name")
    path.mkdir(parents=True, exist_ok=True)
    np.save(path / f"{_TABLE_KEY}.npy",
            np.ascontiguousarray(artifact.item_table))
    params_dir = path / _PARAMS_DIR
    params_dir.mkdir(exist_ok=True)
    for name, value in artifact.params.items():
        np.save(params_dir / f"{name}.npy", np.ascontiguousarray(value))
    manifest = _manifest(artifact)
    manifest["format"] = "dir"
    manifest["format_version"] = ARTIFACT_DIR_FORMAT_VERSION
    manifest["indexes"] = {}
    for backend, (meta, arrays) in states.items():
        index_dir = path / _INDEX_DIR / backend
        index_dir.mkdir(parents=True, exist_ok=True)
        for array_name, value in arrays.items():
            np.save(index_dir / f"{array_name}.npy",
                    np.ascontiguousarray(value))
        manifest["indexes"][backend] = {"meta": meta,
                                        "arrays": sorted(arrays)}
    (path / _MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True))
    return path


def write_artifact(artifact: InferenceArtifact, path: str | Path, *,
                   artifact_format: str = "npz",
                   prebuilt: tuple[str, ...] = (),
                   index_options: dict | None = None) -> Path:
    """Write an in-memory artifact to disk in either on-disk format.

    ``artifact_format="npz"`` writes the legacy single compressed file
    (``.npz`` suffix enforced).  ``artifact_format="dir"`` writes the
    memory-mappable directory bundle at exactly ``path``; ``prebuilt`` then
    names index backends (any of :data:`repro.serve.index.SERIALIZABLE_BACKENDS`)
    to build once here — with per-backend construction knobs from
    ``index_options[backend]`` — and serialize into the bundle, so a loader
    attaches the built structure instead of rebuilding it.  Returns the
    written path.
    """
    path = Path(path)
    prebuilt = tuple(prebuilt)
    if artifact_format == "npz":
        if prebuilt:
            raise ValueError("prebuilt index serialization requires "
                             "artifact_format='dir' (npz decompresses "
                             "private copies, defeating the point)")
        return _write_npz(artifact, path)
    if artifact_format != "dir":
        raise ValueError(f"unknown artifact format {artifact_format!r}; "
                         f"choose 'npz' or 'dir'")
    score_mode = artifact.config.get("score_mode", "max")
    score_pow = float(artifact.config.get("score_pow", 1.0))
    states = {}
    for backend in prebuilt:
        if backend not in SERIALIZABLE_BACKENDS:
            raise ValueError(f"backend {backend!r} cannot be prebuilt; "
                             f"serializable backends: {SERIALIZABLE_BACKENDS}")
        options = dict((index_options or {}).get(backend, {}))
        index = build_index(artifact.item_vectors(), backend,
                            score_mode=score_mode, score_pow=score_pow,
                            **options)
        states[backend] = index.state()
    return _write_dir(artifact, path, states)


def export_artifact(model, path: str | Path, extra: dict | None = None, *,
                    artifact_format: str = "npz",
                    prebuilt: tuple[str, ...] = (),
                    index_options: dict | None = None) -> Path:
    """Freeze a trained MISSL into an inference artifact at ``path``.

    Runs the hypergraph enhancement once (eval mode, no grad) to materialize
    the item table, keeps only the request-path parameter sub-trees, and
    writes the artifact via :func:`write_artifact` (``artifact_format``,
    ``prebuilt`` and ``index_options`` pass straight through).  The model's
    train/eval mode is restored on exit.  Returns the written path.
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
    return write_artifact(artifact, path, artifact_format=artifact_format,
                          prebuilt=prebuilt, index_options=index_options)


def _load_npz(path: Path) -> InferenceArtifact:
    with np.load(path) as archive:
        if _META_KEY not in archive:
            raise ValueError(f"{path} is not a repro inference artifact "
                             f"(missing metadata)")
        meta = json.loads(bytes(archive[_META_KEY].tobytes()).decode())
        version = meta.get("format_version")
        if version != ARTIFACT_FORMAT_VERSION:
            raise ValueError(f"artifact format {version} unsupported "
                             f"(expected {ARTIFACT_FORMAT_VERSION})")
        if _TABLE_KEY not in archive:
            raise ValueError(f"{path} has no item table")
        table = archive[_TABLE_KEY]
        params = {name: archive[_PARAM_PREFIX + name]
                  for name in meta["parameters"]}
    return InferenceArtifact(
        family=meta["family"],
        item_table=table,
        params=params,
        config=meta["config"],
        behaviors=tuple(meta["schema"]["behaviors"]),
        target=meta["schema"]["target"],
        num_items=int(meta["num_items"]),
        extra=meta.get("extra", {}),
        fmt="npz",
        source=str(path),
    )


def _load_dir(path: Path, mmap: bool) -> InferenceArtifact:
    manifest_path = path / _MANIFEST_NAME
    if not manifest_path.is_file():
        raise ValueError(f"{path} is not a repro artifact bundle "
                         f"(missing {_MANIFEST_NAME})")
    manifest = json.loads(manifest_path.read_text())
    version = manifest.get("format_version")
    if version != ARTIFACT_DIR_FORMAT_VERSION:
        raise ValueError(f"artifact format {version} unsupported "
                         f"(expected {ARTIFACT_DIR_FORMAT_VERSION})")
    mode = "r" if mmap else None

    def _load(relative: str) -> np.ndarray:
        return np.load(path / relative, mmap_mode=mode, allow_pickle=False)

    table = _load(f"{_TABLE_KEY}.npy")
    params = {name: _load(f"{_PARAMS_DIR}/{name}.npy")
              for name in manifest["parameters"]}
    prebuilt = {}
    for backend, entry in manifest.get("indexes", {}).items():
        arrays = {name: _load(f"{_INDEX_DIR}/{backend}/{name}.npy")
                  for name in entry["arrays"]}
        prebuilt[backend] = {"meta": entry["meta"], "arrays": arrays}
    return InferenceArtifact(
        family=manifest["family"],
        item_table=table,
        params=params,
        config=manifest["config"],
        behaviors=tuple(manifest["schema"]["behaviors"]),
        target=manifest["schema"]["target"],
        num_items=int(manifest["num_items"]),
        extra=manifest.get("extra", {}),
        fmt="dir",
        source=str(path),
        prebuilt=prebuilt,
    )


def load_artifact(path: str | Path, mmap: bool = True) -> InferenceArtifact:
    """Load an artifact written by :func:`write_artifact` (either format).

    Pure NumPy: no model construction, no autodiff graph.  Directory bundles
    load their arrays with ``mmap_mode="r"`` by default, so co-located
    processes share page-cache pages (``mmap=False`` forces private in-memory
    copies; ``npz`` artifacts are always in-memory).  Raises ``ValueError``
    on missing metadata or an unsupported format version.
    """
    path = Path(path)
    if path.is_dir():
        return _load_dir(path, mmap)
    return _load_npz(path)
