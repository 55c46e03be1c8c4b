"""Artifact export/load round-trip and serving-encoder parity."""

import json

import numpy as np
import pytest

from repro.data.batching import collate
from repro.nn.tensor import no_grad
from repro.recommend import build_inference_example
from repro.serve import build_encoder, export_artifact, load_artifact
from repro.serve.artifact import ARTIFACT_FORMAT_VERSION


class TestRoundTrip:
    def test_manifest_fields(self, artifact, tiny_dataset, serving_model):
        assert artifact.family == "missl"
        assert artifact.num_items == tiny_dataset.num_items
        assert artifact.dim == serving_model.config.dim
        assert artifact.num_interests == serving_model.config.num_interests
        assert artifact.behaviors == tiny_dataset.schema.behaviors
        assert artifact.schema.target == tiny_dataset.schema.target
        assert artifact.extra == {"origin": "tests"}

    def test_item_table_matches_enhanced_representations(self, artifact,
                                                         serving_model):
        serving_model.eval()
        with no_grad():
            table = serving_model.item_representations().numpy()
        np.testing.assert_array_equal(artifact.item_table, table)
        np.testing.assert_array_equal(artifact.item_vectors(), table[1:])

    def test_training_only_subtrees_excluded(self, artifact):
        for name in artifact.params:
            assert not name.startswith(("item_embedding.", "hg_encoder."))
        assert any(name.startswith("seq_embedding.") for name in artifact.params)

    def test_export_restores_train_mode(self, serving_model, tmp_path):
        serving_model.train()
        export_artifact(serving_model, tmp_path / "mode.npz")
        assert serving_model.training
        serving_model.eval()

    def test_suffix_enforced(self, serving_model, tmp_path):
        path = export_artifact(serving_model, tmp_path / "artifact")
        assert path.suffix == ".npz"

    def test_rejects_non_missl(self, tmp_path):
        with pytest.raises(TypeError, match="MISSL"):
            export_artifact(object(), tmp_path / "bad.npz")

    def test_rejects_foreign_npz(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, weights=np.zeros(3))
        with pytest.raises(ValueError, match="not a repro inference artifact"):
            load_artifact(path)

    def test_rejects_future_format(self, artifact_path, tmp_path):
        with np.load(artifact_path) as archive:
            arrays = dict(archive)
        meta = json.loads(bytes(arrays["__meta__"].tobytes()).decode())
        meta["format_version"] = ARTIFACT_FORMAT_VERSION + 1
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(),
                                           dtype=np.uint8)
        path = tmp_path / "future.npz"
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="unsupported"):
            load_artifact(path)


class TestDamagedArtifact:
    @pytest.mark.parametrize("kind", ["flipped", "truncated"])
    def test_refused_with_an_error_naming_the_file(self, artifact_path,
                                                   damaged, kind):
        bad = damaged(artifact_path, kind)
        with pytest.raises(ValueError, match="damaged artifact") as info:
            load_artifact(bad)
        assert str(bad) in str(info.value)


class TestEncoderParity:
    """The autodiff-free encoder must match the eval-mode model bitwise."""

    @pytest.fixture
    def batch(self, tiny_dataset):
        users = tiny_dataset.users[:6]
        examples = [build_inference_example(tiny_dataset, user)
                    for user in users]
        return collate(examples, tiny_dataset.schema)

    def test_interests_bitwise_equal(self, artifact, serving_model, batch):
        encoder = build_encoder(artifact)
        serving_model.eval()
        with no_grad():
            expected = serving_model.user_representation(batch).numpy()
        np.testing.assert_array_equal(encoder.interests(batch), expected)

    def test_behavior_interests_bitwise_equal(self, artifact, serving_model,
                                              batch):
        encoder = build_encoder(artifact)
        serving_model.eval()
        with no_grad():
            expected = serving_model.behavior_interests(batch)
        produced = encoder.behavior_interests(batch)
        assert set(produced) == set(expected)
        for key, value in expected.items():
            np.testing.assert_array_equal(produced[key], value.numpy())

    def test_unknown_family_rejected(self, artifact):
        from dataclasses import replace
        with pytest.raises(ValueError, match="no serving encoder"):
            build_encoder(replace(artifact, family="unheard-of"))
