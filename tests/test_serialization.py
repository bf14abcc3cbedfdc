"""Tests for model checkpointing (save/load roundtrips)."""

import json

import numpy as np
import pytest

from repro.models import build_model
from repro.utils import load_checkpoint, load_model, save_checkpoint
from repro.utils.serialization import CheckpointCorrupted, checksum_file


@pytest.fixture()
def batch(test_dataset):
    return test_dataset.batch(np.arange(32))


class TestRoundtrip:
    @pytest.mark.parametrize("name", ["dnn", "adv-hsc-moe", "4-mmoe"])
    def test_predictions_identical_after_reload(self, name, train_dataset,
                                                taxonomy, tiny_model_config,
                                                batch, tmp_path):
        model = build_model(name, train_dataset.spec, taxonomy,
                            tiny_model_config, train_dataset=train_dataset)
        before = model.predict(batch)
        save_checkpoint(model, tmp_path / "ckpt", model_name=name)
        restored = load_model(tmp_path / "ckpt", train_dataset.spec, taxonomy,
                              train_dataset=train_dataset)
        np.testing.assert_allclose(restored.predict(batch), before, atol=1e-12)

    def test_config_restored(self, train_dataset, taxonomy, tiny_model_config, tmp_path):
        model = build_model("moe", train_dataset.spec, taxonomy, tiny_model_config)
        save_checkpoint(model, tmp_path / "m", model_name="moe")
        restored = load_model(tmp_path / "m", train_dataset.spec, taxonomy)
        assert restored.config == tiny_model_config

    def test_extra_metadata_persisted(self, train_dataset, taxonomy,
                                      tiny_model_config, tmp_path):
        model = build_model("dnn", train_dataset.spec, taxonomy, tiny_model_config)
        save_checkpoint(model, tmp_path / "m", model_name="dnn",
                        extra={"auc": 0.82})
        _, meta = load_checkpoint(tmp_path / "m")
        assert meta["extra"]["auc"] == 0.82
        assert meta["model_name"] == "dnn"

    def test_mmoe_bucket_assignment_persisted(self, train_dataset, taxonomy,
                                              tiny_model_config, tmp_path, batch):
        model = build_model("4-mmoe", train_dataset.spec, taxonomy,
                            tiny_model_config, train_dataset=train_dataset)
        save_checkpoint(model, tmp_path / "m", model_name="4-mmoe")
        # Reload WITHOUT the training dataset: routing must still match
        # because bucket assignment travels in the checkpoint.
        restored = load_model(tmp_path / "m", train_dataset.spec, taxonomy)
        assert restored.bucket_assignment == model.bucket_assignment
        np.testing.assert_allclose(restored.predict(batch), model.predict(batch))


class TestErrors:
    def test_missing_checkpoint(self, train_dataset, taxonomy, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "nope")

    def test_partial_checkpoint(self, train_dataset, taxonomy, tiny_model_config,
                                tmp_path):
        model = build_model("dnn", train_dataset.spec, taxonomy, tiny_model_config)
        save_checkpoint(model, tmp_path / "m", model_name="dnn")
        (tmp_path / "m.json").unlink()
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "m")

    def test_version_check(self, train_dataset, taxonomy, tiny_model_config, tmp_path):
        model = build_model("dnn", train_dataset.spec, taxonomy, tiny_model_config)
        save_checkpoint(model, tmp_path / "m", model_name="dnn")
        meta = json.loads((tmp_path / "m.json").read_text())
        meta["format_version"] = 999
        (tmp_path / "m.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError):
            load_checkpoint(tmp_path / "m")

    def test_unknown_manifest_key_detected(self, train_dataset, taxonomy,
                                           tiny_model_config, tmp_path):
        model = build_model("dnn", train_dataset.spec, taxonomy, tiny_model_config)
        save_checkpoint(model, tmp_path / "m", model_name="dnn")
        meta = json.loads((tmp_path / "m.json").read_text())
        meta["checksum"]["mystery"] = "sha256:" + "0" * 64
        (tmp_path / "m.json").write_text(json.dumps(meta))
        with pytest.raises(CheckpointCorrupted, match="mystery"):
            load_checkpoint(tmp_path / "m")


class TestInt8SidecarCheckpoints:
    """Checkpoints written while int8 serving existed carry a
    ``ranker.quant.npz`` sidecar and a ``quantized`` checksum-manifest
    entry: the sidecar is verified, never read."""

    @pytest.fixture()
    def saved(self, train_dataset, taxonomy, tiny_model_config, tmp_path):
        model = build_model("adv-hsc-moe", train_dataset.spec, taxonomy,
                            tiny_model_config, train_dataset=train_dataset)
        save_checkpoint(model, tmp_path / "ranker", model_name="adv-hsc-moe")
        sidecar = tmp_path / "ranker.quant.npz"
        # Not an archive at all: a loader that parsed it would fail.
        sidecar.write_bytes(b"int8 tensors and scales" * 64)
        meta = json.loads((tmp_path / "ranker.json").read_text())
        meta["checksum"]["quantized"] = checksum_file(sidecar)
        (tmp_path / "ranker.json").write_text(json.dumps(meta))
        return model, tmp_path / "ranker", sidecar

    def test_loads_and_scores_like_the_saved_model(self, saved, train_dataset,
                                                   taxonomy, batch):
        model, base, _ = saved
        restored = load_model(base, train_dataset.spec, taxonomy)
        np.testing.assert_array_equal(restored.score(batch), model.score(batch))

    def test_torn_sidecar_detected(self, saved):
        _, base, sidecar = saved
        sidecar.write_bytes(sidecar.read_bytes()[:sidecar.stat().st_size // 2])
        with pytest.raises(CheckpointCorrupted, match="quantized checksum"):
            load_checkpoint(base)

    def test_missing_sidecar_detected(self, saved):
        _, base, sidecar = saved
        sidecar.unlink()
        with pytest.raises(CheckpointCorrupted,
                           match="artifact 'quantized' is missing"):
            load_checkpoint(base)
