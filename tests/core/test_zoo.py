"""Tests for model checkpointing (save_model / load_model)."""

import json
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro import APOTS
from repro.core import load_model, model_fingerprint, save_model
from repro.core import zoo
from repro.data import FactorMask, FeatureConfig


@pytest.fixture(scope="module")
def fitted(request):
    tiny_dataset = request.getfixturevalue("tiny_dataset")
    micro_preset = request.getfixturevalue("micro_preset")
    model = APOTS(predictor="F", adversarial=True, preset=micro_preset, seed=0)
    return model.fit(tiny_dataset), tiny_dataset


class TestRoundtrip:
    def test_predictions_identical(self, fitted, tmp_path):
        model, dataset = fitted
        save_model(model, tmp_path / "ckpt")
        loaded = load_model(tmp_path / "ckpt")
        np.testing.assert_allclose(loaded.predict(dataset), model.predict(dataset))

    def test_discriminator_restored(self, fitted, tmp_path):
        model, dataset = fitted
        save_model(model, tmp_path / "ckpt")
        loaded = load_model(tmp_path / "ckpt")
        assert loaded.discriminator is not None
        rng = np.random.default_rng(0)
        seq = rng.random((3, dataset.config.alpha))
        cond = rng.random((3, dataset.config.condition_dim))
        np.testing.assert_allclose(
            loaded.discriminator.probability(seq, cond),
            model.discriminator.probability(seq, cond),
        )

    def test_metadata_preserved(self, fitted, tmp_path):
        model, _ = fitted
        save_model(model, tmp_path / "ckpt")
        loaded = load_model(tmp_path / "ckpt")
        assert loaded.kind == model.kind
        assert loaded.adversarial == model.adversarial
        assert loaded.features == model.features
        assert loaded.spec == model.spec

    def test_plain_model_has_no_discriminator_file(self, tiny_dataset, micro_preset, tmp_path):
        model = APOTS(predictor="F", adversarial=False, preset=micro_preset, seed=0)
        model.fit(tiny_dataset)
        path = save_model(model, tmp_path / "plain")
        assert not (path / "discriminator.npz").exists()
        loaded = load_model(path)
        assert loaded.discriminator is None
        np.testing.assert_allclose(loaded.predict(tiny_dataset), model.predict(tiny_dataset))

    def test_nondefault_features_roundtrip(self, micro_preset, tmp_path):
        features = FeatureConfig(alpha=12, beta=2, m=1, mask=FactorMask.table2("ST"))
        model = APOTS(predictor="C", features=features, adversarial=False, preset=micro_preset)
        save_model(model, tmp_path / "c")
        loaded = load_model(tmp_path / "c")
        assert loaded.features == features


class TestScalerPersistence:
    """The fitted feature scalers ride along with the weights."""

    def test_scaler_state_roundtrips(self, fitted, tmp_path):
        model, _ = fitted
        assert model.scalers is not None  # recorded by fit()
        save_model(model, tmp_path / "ckpt")
        loaded = load_model(tmp_path / "ckpt")
        assert loaded.scalers is not None
        assert loaded.scalers.state_dict() == model.scalers.state_dict()

    def test_raw_speed_inference_reproduced(self, fitted, tmp_path):
        # The point of persisting scalers: identical km/h forecasts from
        # raw inputs, not just identical scaled outputs.
        model, dataset = fitted
        save_model(model, tmp_path / "ckpt")
        loaded = load_model(tmp_path / "ckpt")
        indices = dataset.subset("test")
        batch = dataset.batch(indices)
        scaled = loaded.predictor.predict(batch.images, batch.day_types, batch.flat)
        np.testing.assert_array_equal(
            loaded.scalers.speed.inverse_transform(scaled),
            dataset.kmh(model.predictor.predict(batch.images, batch.day_types, batch.flat)),
        )

    def test_unfitted_model_saves_without_scalers(self, micro_preset, tmp_path):
        model = APOTS(predictor="F", adversarial=False, preset=micro_preset)
        save_model(model, tmp_path / "ckpt")
        assert load_model(tmp_path / "ckpt").scalers is None

    def test_v1_checkpoint_rejected(self, fitted, tmp_path):
        model, _ = fitted
        path = save_model(model, tmp_path / "v1")
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["format_version"] = 1
        manifest.pop("scalers")
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="format version 1"):
            load_model(path)


class TestErrors:
    def test_missing_checkpoint(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path / "nope")

    def test_unsupported_version(self, fitted, tmp_path):
        model, _ = fitted
        path = save_model(model, tmp_path / "v")
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["format_version"] = 99
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="format version 99"):
            load_model(path)

    def test_version_error_names_supported_versions(self, fitted, tmp_path):
        model, _ = fitted
        path = save_model(model, tmp_path / "v")
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["format_version"] = 0
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=r"reads versions \(4,\)"):
            load_model(path)


class TestReferenceProfilePersistence:
    """The training-time input profile rides along too."""

    def test_profile_roundtrips(self, fitted, tmp_path):
        model, _ = fitted
        assert model.reference_profile is not None  # recorded by fit()
        save_model(model, tmp_path / "ckpt")
        loaded = load_model(tmp_path / "ckpt")
        assert loaded.reference_profile is not None
        assert loaded.reference_profile == model.reference_profile

    def test_manifest_declares_v4(self, fitted, tmp_path):
        model, _ = fitted
        path = save_model(model, tmp_path / "ckpt")
        manifest = json.loads((path / "manifest.json").read_text())
        assert manifest["format_version"] == 4
        assert manifest["reference_profile"] is not None

    def test_v2_checkpoint_rejected(self, fitted, tmp_path):
        model, _ = fitted
        path = save_model(model, tmp_path / "v2")
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["format_version"] = 2
        manifest.pop("reference_profile")
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="format version 2"):
            load_model(path)

    def test_unfitted_model_saves_without_profile(self, micro_preset, tmp_path):
        model = APOTS(predictor="F", adversarial=False, preset=micro_preset)
        path = save_model(model, tmp_path / "ckpt")
        manifest = json.loads((path / "manifest.json").read_text())
        assert manifest["reference_profile"] is None
        assert load_model(path).reference_profile is None


class TestWeightIntegrity:
    """The manifest's fingerprints tie it to the weight files of one save."""

    def test_manifest_records_fingerprints(self, fitted, tmp_path):
        model, _ = fitted
        path = save_model(model, tmp_path / "ckpt")
        manifest = json.loads((path / "manifest.json").read_text())
        assert manifest["fingerprint"] == model_fingerprint(model)
        assert manifest["discriminator_fingerprint"] is not None
        assert not (path / "manifest.json.tmp").exists()

    def test_flipped_weight_byte_rejected(self, fitted, tmp_path):
        model, _ = fitted
        path = save_model(model, tmp_path / "ckpt")
        weights = path / "predictor.npz"
        raw = bytearray(weights.read_bytes())
        # The first array's last value: npz stores its members
        # uncompressed, so this byte is weight data, not zip metadata.
        first = np.load(weights)
        name = sorted(first.files)[0]
        offset = bytes(raw).index(first[name].tobytes()) + first[name].nbytes - 1
        raw[offset] ^= 0x01
        weights.write_bytes(bytes(raw))
        # The member's zip CRC catches a flipped byte before the
        # fingerprint check runs.
        with pytest.raises(zipfile.BadZipFile, match="CRC"):
            load_model(path)

    @pytest.mark.parametrize("part", ["predictor", "discriminator"])
    def test_rewritten_weights_rejected(self, fitted, tmp_path, part):
        # A well-formed weight file that differs from the manifest's save
        # by one ulp in one value must not load.
        model, _ = fitted
        path = save_model(model, tmp_path / "ckpt")
        state = getattr(model, part).state_dict()
        name = sorted(state)[0]
        state[name].flat[0] = np.nextafter(state[name].flat[0], np.inf)
        np.savez(path / f"{part}.npz", **state)
        with pytest.raises(ValueError, match=f"{path}.*fingerprints"):
            load_model(path)

    def test_save_dying_at_discriminator_leaves_unloadable_mix(
        self, fitted, micro_preset, tiny_dataset, tmp_path, monkeypatch
    ):
        # Save model A, then start saving a differently-trained model B
        # over it and kill the save at the discriminator file: the
        # directory holds B's predictor beside A's manifest.
        model, _ = fitted
        path = save_model(model, tmp_path / "ckpt")
        other = APOTS(predictor="F", adversarial=True, preset=micro_preset, seed=1)
        other.fit(tiny_dataset)
        assert model_fingerprint(other) != model_fingerprint(model)

        def dying_save_state(module, target):
            if Path(target).name == "discriminator.npz":
                raise OSError("disk full")
            real_save_state(module, target)

        real_save_state = zoo.save_state
        monkeypatch.setattr(zoo, "save_state", dying_save_state)
        with pytest.raises(OSError):
            save_model(other, path)
        monkeypatch.undo()
        with pytest.raises(ValueError, match="fingerprints"):
            load_model(path)
