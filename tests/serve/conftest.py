"""Shared serving fixtures: a trained-shape model, its exported artifact,
a history store seeded from the tiny corpus, and a CLI-exported preset
artifact that ``repro serve`` can rebuild its corpus for."""

import pytest

from repro.core import MISSL, MISSLConfig
from repro.serve import HistoryStore, export_artifact, load_artifact

SERVE_CONFIG = MISSLConfig(dim=16, num_interests=3, max_len=20)


@pytest.fixture(scope="session")
def serving_model(tiny_dataset, tiny_graph):
    return MISSL(tiny_dataset.num_items, tiny_dataset.schema, tiny_graph,
                 SERVE_CONFIG, seed=0)


@pytest.fixture(scope="session")
def artifact_path(serving_model, tmp_path_factory):
    path = tmp_path_factory.mktemp("serve") / "model.npz"
    return export_artifact(serving_model, path, extra={"origin": "tests"})


@pytest.fixture(scope="session")
def artifact(artifact_path):
    return load_artifact(artifact_path)


@pytest.fixture
def history(tiny_dataset):
    return HistoryStore.from_dataset(tiny_dataset)


@pytest.fixture(scope="session")
def exported(tmp_path_factory):
    """``repro export`` output on the taobao preset (scale 0.1, seed 3)."""
    from repro.cli import main
    path = tmp_path_factory.mktemp("cli") / "artifact.npz"
    assert main(["export", str(path), "--preset", "taobao",
                 "--scale", "0.1", "--dim", "16", "--epochs", "1",
                 "--seed", "3"]) == 0
    return path


@pytest.fixture
def damaged(tmp_path):
    """``damaged(path, kind)``: a copy of the ``.npz`` at ``path`` with one
    byte flipped mid-way through its ``item_table.npy`` member
    (``kind="flipped"``) or its last 200 bytes cut off (``"truncated"``)."""
    import zipfile

    def make(path, kind: str):
        data = bytearray(path.read_bytes())
        if kind == "flipped":
            with zipfile.ZipFile(path) as archive:
                info = archive.getinfo("item_table.npy")
            start = (info.header_offset + 30 + len(info.filename.encode())
                     + len(info.extra))
            data[start + info.compress_size // 2] ^= 0xFF
        else:
            del data[-200:]
        out = tmp_path / f"{kind}.npz"
        out.write_bytes(bytes(data))
        return out

    return make
