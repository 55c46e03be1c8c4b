"""Artifact v2 (directory-bundle) tests: mmap loading, prebuilt indexes
and format back-compat."""

import json

import numpy as np
import pytest

from repro.serve import (HistoryStore, RecommenderService, export_artifact,
                         load_artifact, write_artifact)
from repro.serve.artifact import ARTIFACT_DIR_FORMAT_VERSION

PREBUILT = ("ivf", "hnsw", "pq", "ivf_pq", "exact_sq")
INDEX_OPTIONS = {"ivf": {"nlist": 8, "seed": 0},
                 "hnsw": {"M": 8, "seed": 0},
                 "pq": {"m": 4, "seed": 0},
                 "ivf_pq": {"m": 4, "nlist": 8, "seed": 0}}


@pytest.fixture(scope="module")
def bundle_path(serving_model, tmp_path_factory):
    path = tmp_path_factory.mktemp("serve_v2") / "model.artifact"
    return export_artifact(serving_model, path, extra={"origin": "tests"},
                           artifact_format="dir", prebuilt=PREBUILT,
                           index_options=INDEX_OPTIONS)


@pytest.fixture(scope="module")
def bundle(bundle_path):
    return load_artifact(bundle_path)


def recommendations(artifact, dataset, users, **options):
    service = RecommenderService(artifact, HistoryStore.from_dataset(dataset),
                                 **options)
    try:
        return {user: [(r.item, r.score) for r in service.recommend(user, k=5)]
                for user in users}
    finally:
        service.close()


class TestBundleLayout:
    def test_on_disk_structure(self, bundle_path):
        manifest = json.loads((bundle_path / "manifest.json").read_text())
        assert manifest["format"] == "dir"
        assert manifest["format_version"] == ARTIFACT_DIR_FORMAT_VERSION
        assert (bundle_path / "item_table.npy").is_file()
        for name in manifest["parameters"]:
            assert (bundle_path / "params" / f"{name}.npy").is_file()
        assert set(manifest["indexes"]) == set(PREBUILT)
        for backend, entry in manifest["indexes"].items():
            for array_name in entry["arrays"]:
                assert (bundle_path / "index" / backend
                        / f"{array_name}.npy").is_file()

    def test_arrays_are_memory_mapped(self, bundle):
        assert bundle.fmt == "dir"
        assert isinstance(bundle.item_table, np.memmap)
        assert all(isinstance(v, np.memmap) for v in bundle.params.values())
        for entry in bundle.prebuilt.values():
            assert all(isinstance(v, np.memmap)
                       for v in entry["arrays"].values())

    def test_mmap_false_loads_private_copies(self, bundle_path):
        eager = load_artifact(bundle_path, mmap=False)
        assert not isinstance(eager.item_table, np.memmap)
        assert all(not isinstance(v, np.memmap)
                   for v in eager.params.values())

    def test_matches_npz_export_bitwise(self, bundle, artifact):
        np.testing.assert_array_equal(np.asarray(bundle.item_table),
                                      artifact.item_table)
        assert set(bundle.params) == set(artifact.params)
        for name, value in artifact.params.items():
            np.testing.assert_array_equal(np.asarray(bundle.params[name]),
                                          value)
        assert bundle.config == artifact.config
        assert bundle.extra == artifact.extra


class TestFormatCompat:
    def test_legacy_npz_still_loads(self, artifact):
        assert artifact.fmt == "npz"
        assert artifact.prebuilt == {}
        assert artifact.source is not None

    def test_npz_rejects_prebuilt(self, artifact, tmp_path):
        with pytest.raises(ValueError, match="requires artifact_format='dir'"):
            write_artifact(artifact, tmp_path / "x.npz", prebuilt=("hnsw",))

    def test_unknown_format_rejected(self, artifact, tmp_path):
        with pytest.raises(ValueError, match="unknown artifact format"):
            write_artifact(artifact, tmp_path / "x", artifact_format="tar")

    def test_unserializable_backend_rejected(self, artifact, tmp_path):
        with pytest.raises(ValueError, match="cannot be prebuilt"):
            write_artifact(artifact, tmp_path / "x", artifact_format="dir",
                           prebuilt=("exact",))

    def test_future_version_rejected(self, artifact, tmp_path):
        path = write_artifact(artifact, tmp_path / "bundle",
                              artifact_format="dir")
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["format_version"] = ARTIFACT_DIR_FORMAT_VERSION + 1
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="unsupported"):
            load_artifact(path)

    def test_non_bundle_directory_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="not a repro artifact bundle"):
            load_artifact(tmp_path)


class TestServingParity:
    """Every backend must answer identically from npz, mmap'd dir, and
    in-memory dir loads of the same export."""

    @pytest.mark.parametrize("backend", ["exact", "ivf", "hnsw", "pq",
                                         "ivf_pq", "exact_sq"])
    def test_topk_identical_across_formats(self, backend, bundle_path,
                                           artifact, tiny_dataset):
        users = tiny_dataset.users[:4]
        options = {"index_backend": backend,
                   "index_options": INDEX_OPTIONS.get(backend, {})}
        expected = recommendations(artifact, tiny_dataset, users, **options)
        mapped = recommendations(load_artifact(bundle_path), tiny_dataset,
                                 users, **options)
        eager = recommendations(load_artifact(bundle_path, mmap=False),
                                tiny_dataset, users, **options)
        assert mapped == expected
        assert eager == expected


class TestPrebuiltAttach:
    def test_runtime_options_attach_prebuilt(self, bundle, tiny_dataset):
        service = RecommenderService(
            bundle, HistoryStore.from_dataset(tiny_dataset),
            index_backend="hnsw", index_options={"ef_search": 48})
        try:
            info = service.stats()["index"]
            assert info["prebuilt"] is True
            assert info["ef_search"] == 48
            assert service.metrics.snapshot()["search"]["prebuilt_loads"] == 1
        finally:
            service.close()

    def test_structural_options_force_rebuild(self, bundle, tiny_dataset):
        service = RecommenderService(
            bundle, HistoryStore.from_dataset(tiny_dataset),
            index_backend="hnsw", index_options={"M": 4, "seed": 0})
        try:
            assert service.stats()["index"]["prebuilt"] is False
        finally:
            service.close()

    def test_use_prebuilt_false_forces_rebuild(self, bundle, tiny_dataset):
        service = RecommenderService(
            bundle, HistoryStore.from_dataset(tiny_dataset),
            index_backend="pq", use_prebuilt=False)
        try:
            assert service.stats()["index"]["prebuilt"] is False
        finally:
            service.close()

    @pytest.mark.parametrize("backend", ["ivf", "hnsw", "pq", "ivf_pq",
                                         "exact_sq"])
    def test_prebuilt_answers_match_fresh_build(self, backend, bundle,
                                                tiny_dataset):
        users = tiny_dataset.users[:4]
        attached = recommendations(bundle, tiny_dataset, users,
                                   index_backend=backend)
        rebuilt = recommendations(bundle, tiny_dataset, users,
                                  index_backend=backend, use_prebuilt=False,
                                  index_options=INDEX_OPTIONS.get(backend, {}))
        assert attached == rebuilt
