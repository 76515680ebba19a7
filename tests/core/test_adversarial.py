"""Tests for the APOTS adversarial trainer."""

import json
import warnings

import numpy as np
import pytest

from repro.core import APOTSTrainer, Discriminator, TrainSpec, build_predictor, table1_spec
from repro.data import FeatureConfig, SplitIndices, TrafficDataset
from repro.obs import GanHealthWarning, RunRecorder, use_recorder, validate_run_dir


def make_pair(dataset, conditional=True, seed=0, **spec_overrides):
    rng = np.random.default_rng(seed)
    predictor = build_predictor("F", dataset.config, spec=table1_spec("F", 0.05), rng=rng)
    disc = Discriminator(
        dataset.config, spec=table1_spec("F", 0.05), conditional=conditional, rng=rng
    )
    defaults = dict(epochs=2, adversarial_batch_size=8, max_steps_per_epoch=5, seed=seed)
    defaults.update(spec_overrides)
    return predictor, disc, TrainSpec(**defaults)


class TestFit:
    def test_history_populated(self, tiny_dataset):
        predictor, disc, spec = make_pair(tiny_dataset)
        history = APOTSTrainer(predictor, disc, spec).fit(tiny_dataset)
        assert history.epochs_run == 2
        for field in (
            history.predictor_loss,
            history.mse_loss,
            history.adversarial_loss,
            history.discriminator_loss,
        ):
            assert len(field) == 2
            assert np.all(np.isfinite(field))

    def test_discriminator_probs_in_unit_interval(self, tiny_dataset):
        predictor, disc, spec = make_pair(tiny_dataset)
        history = APOTSTrainer(predictor, disc, spec).fit(tiny_dataset)
        for p in history.discriminator_real_prob + history.discriminator_fake_prob:
            assert 0.0 <= p <= 1.0

    def test_mse_improves_with_training(self, tiny_dataset):
        predictor, disc, spec = make_pair(tiny_dataset, epochs=6, max_steps_per_epoch=10)
        history = APOTSTrainer(predictor, disc, spec).fit(tiny_dataset)
        assert history.mse_loss[-1] < history.mse_loss[0]

    def test_unconditional_variant_runs(self, tiny_dataset):
        predictor, disc, spec = make_pair(tiny_dataset, conditional=False)
        history = APOTSTrainer(predictor, disc, spec).fit(tiny_dataset)
        assert history.epochs_run == 2

    def test_saturating_loss_variant_runs(self, tiny_dataset):
        predictor, disc, spec = make_pair(tiny_dataset, saturating_adv_loss=True)
        history = APOTSTrainer(predictor, disc, spec).fit(tiny_dataset)
        assert np.all(np.isfinite(history.adversarial_loss))

    def test_custom_loss_weights(self, tiny_dataset):
        predictor, disc, spec = make_pair(tiny_dataset, mse_weight=1.0, adv_weight=0.0)
        history = APOTSTrainer(predictor, disc, spec).fit(tiny_dataset)
        np.testing.assert_allclose(
            history.predictor_loss, history.mse_loss, rtol=1e-9
        )

    def test_deterministic(self, tiny_dataset):
        histories = []
        for _ in range(2):
            predictor, disc, spec = make_pair(tiny_dataset, seed=4)
            histories.append(APOTSTrainer(predictor, disc, spec).fit(tiny_dataset))
        np.testing.assert_allclose(histories[0].predictor_loss, histories[1].predictor_loss)

    def test_verbose_prints(self, tiny_dataset, capsys):
        predictor, disc, spec = make_pair(tiny_dataset, epochs=1)
        APOTSTrainer(predictor, disc, spec).fit(tiny_dataset, verbose=True)
        out = capsys.readouterr().out
        assert "epoch 1/1" in out and "real" in out

    def test_no_anchors_raises(self, tiny_series):
        config = FeatureConfig()
        n = tiny_series.num_steps - config.alpha - config.beta + 1
        scattered = np.arange(0, n, 5)
        rest = np.setdiff1d(np.arange(n), scattered)
        split = SplitIndices(
            train=scattered, validation=np.array([], dtype=int), test=rest[:10]
        )
        ds = TrafficDataset(tiny_series, config, split=split)
        predictor, disc, spec = make_pair(ds)
        with pytest.raises(RuntimeError, match="no adversarial anchors"):
            APOTSTrainer(predictor, disc, spec).fit(ds)


class TestEmptyEpochGuards:
    """Regression: np.mean([]) used to warn and poison the history."""

    def test_zero_discriminator_steps_no_warning(self, tiny_dataset):
        predictor, disc, spec = make_pair(tiny_dataset, discriminator_steps=0, epochs=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            history = APOTSTrainer(predictor, disc, spec).fit(tiny_dataset)
        # P trained normally; the untouched D series are NaN, not warnings.
        assert np.all(np.isfinite(history.predictor_loss))
        assert np.all(np.isnan(history.discriminator_loss))
        assert np.all(np.isnan(history.discriminator_real_prob))
        assert np.all(np.isnan(history.discriminator_grad_norm))

    def test_zero_steps_per_epoch_no_warning(self, tiny_dataset):
        predictor, disc, spec = make_pair(tiny_dataset, max_steps_per_epoch=0, epochs=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            history = APOTSTrainer(predictor, disc, spec).fit(tiny_dataset)
        assert history.epochs_run == 2
        assert np.all(np.isnan(history.predictor_loss))
        assert np.all(np.isnan(history.mse_loss))


class TestObservability:
    def test_fit_emits_valid_run_log(self, tiny_dataset, tmp_path):
        predictor, disc, spec = make_pair(tiny_dataset)
        recorder = RunRecorder(tmp_path / "run")
        history = APOTSTrainer(predictor, disc, spec).fit(tiny_dataset, recorder=recorder)
        recorder.close()
        assert validate_run_dir(recorder.directory) == []
        events = [
            json.loads(line)
            for line in recorder.events_path.read_text().splitlines()
            if line.strip()
        ]
        epochs = [e for e in events if e["kind"] == "adv_epoch"]
        assert len(epochs) == history.epochs_run == 2
        for event in epochs:
            for signal in (
                "predictor_loss",
                "discriminator_loss",
                "discriminator_real_prob",
                "discriminator_fake_prob",
                "predictor_grad_norm",
                "discriminator_grad_norm",
            ):
                assert np.isfinite(event[signal])
        assert any(e["kind"] == "d_step" for e in events)
        assert any(e["kind"] == "p_step" for e in events)
        manifest = json.loads(recorder.manifest_path.read_text())
        assert manifest["trainer"] == "APOTSTrainer"
        assert manifest["seed"] == spec.seed
        assert set(manifest["sections"]) >= {"rollout", "d_step", "p_step"}

    def test_ambient_recorder_used_when_none_passed(self, tiny_dataset, tmp_path):
        predictor, disc, spec = make_pair(tiny_dataset, epochs=1)
        recorder = RunRecorder(tmp_path / "run")
        with use_recorder(recorder):
            APOTSTrainer(predictor, disc, spec).fit(tiny_dataset)
        recorder.close()
        assert recorder.num_events > 0

    def test_history_matches_unobserved_run(self, tiny_dataset, tmp_path):
        """Attaching a recorder must not change the training trajectory."""
        histories = []
        for attach in (False, True):
            predictor, disc, spec = make_pair(tiny_dataset, seed=3)
            recorder = RunRecorder(tmp_path / f"run-{attach}") if attach else None
            histories.append(
                APOTSTrainer(predictor, disc, spec).fit(tiny_dataset, recorder=recorder)
            )
            if recorder is not None:
                recorder.close()
        np.testing.assert_allclose(histories[0].predictor_loss, histories[1].predictor_loss)
        np.testing.assert_allclose(
            histories[0].predictor_grad_norm, histories[1].predictor_grad_norm
        )

    def test_nan_gradient_triggers_monitor_not_adam_corruption(self, tiny_dataset, tmp_path):
        """Acceptance: a poisoned gradient raises the non-finite monitor
        and the optimiser state stays finite instead of absorbing NaNs."""
        predictor, disc, spec = make_pair(tiny_dataset, epochs=1)
        # Poison one predictor weight: the forward goes NaN, so losses
        # and gradients do too.
        predictor.parameters()[0].data[...] = np.nan
        trainer = APOTSTrainer(predictor, disc, spec)
        recorder = RunRecorder(tmp_path / "run")
        with pytest.warns(GanHealthWarning):
            trainer.fit(tiny_dataset, recorder=recorder)
        recorder.close()
        codes = set(recorder.warning_counts)
        assert "non_finite_grad_norm" in codes
        assert "non_finite_loss" in codes
        # The poisoned updates were skipped: Adam's moments never saw NaN.
        for moments in (trainer.p_optimizer._m, trainer.p_optimizer._v):
            for m in moments:
                assert np.all(np.isfinite(m))


class TestAlphaRatio:
    def test_default_mse_weight_is_alpha(self, tiny_dataset):
        """The paper's footnote: MSE and adversarial terms at ratio alpha:1."""
        predictor, disc, spec = make_pair(tiny_dataset)
        assert spec.mse_weight is None  # default -> alpha at runtime
        trainer = APOTSTrainer(predictor, disc, spec)
        anchors = tiny_dataset.rollout_anchors("train")[:4]
        batch = tiny_dataset.rollout_batch(anchors)
        total, mse, adv, _, _ = trainer._predictor_step(batch, tiny_dataset.config.alpha)
        assert total == pytest.approx(mse * tiny_dataset.config.alpha + adv, rel=1e-6)


class TestGradientHygiene:
    def test_predictor_step_does_not_pollute_discriminator(self, tiny_dataset):
        predictor, disc, spec = make_pair(tiny_dataset)
        trainer = APOTSTrainer(predictor, disc, spec)
        anchors = tiny_dataset.rollout_anchors("train")[:4]
        batch = tiny_dataset.rollout_batch(anchors)
        trainer._predictor_step(batch, tiny_dataset.config.alpha)
        assert all(p.grad is None for p in disc.parameters())

    def test_discriminator_step_does_not_touch_predictor(self, tiny_dataset):
        predictor, disc, spec = make_pair(tiny_dataset)
        trainer = APOTSTrainer(predictor, disc, spec)
        anchors = tiny_dataset.rollout_anchors("train")[:4]
        batch = tiny_dataset.rollout_batch(anchors)
        before = {name: p.data.copy() for name, p in predictor.named_parameters()}
        trainer._discriminator_step(batch, tiny_dataset.config.alpha)
        for name, param in predictor.named_parameters():
            np.testing.assert_array_equal(param.data, before[name])
