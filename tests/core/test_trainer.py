"""Tests for the plain supervised trainer."""

import json

import numpy as np
import pytest

from repro.core import SupervisedTrainer, TrainSpec, build_predictor, table1_spec
from repro.obs import RunRecorder, validate_run_dir


def make_trainer(dataset, epochs=3, seed=0):
    predictor = build_predictor(
        "F", dataset.config, spec=table1_spec("F", 0.05), rng=np.random.default_rng(seed)
    )
    spec = TrainSpec(epochs=epochs, batch_size=64, max_steps_per_epoch=8, seed=seed)
    return SupervisedTrainer(predictor, spec)


class TestFit:
    def test_history_lengths(self, tiny_dataset):
        trainer = make_trainer(tiny_dataset, epochs=3)
        history = trainer.fit(tiny_dataset)
        assert history.epochs_run == 3
        assert len(history.validation_loss) == 3

    def test_loss_decreases(self, tiny_dataset):
        trainer = make_trainer(tiny_dataset, epochs=5)
        history = trainer.fit(tiny_dataset)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_losses_finite(self, tiny_dataset):
        history = make_trainer(tiny_dataset).fit(tiny_dataset)
        assert np.all(np.isfinite(history.train_loss))
        assert np.all(np.isfinite(history.validation_loss))

    def test_deterministic_given_seed(self, tiny_dataset):
        a = make_trainer(tiny_dataset, seed=3).fit(tiny_dataset)
        b = make_trainer(tiny_dataset, seed=3).fit(tiny_dataset)
        np.testing.assert_allclose(a.train_loss, b.train_loss)

    def test_max_steps_limits_work(self, tiny_dataset):
        predictor = build_predictor(
            "F", tiny_dataset.config, spec=table1_spec("F", 0.05), rng=np.random.default_rng(0)
        )
        spec = TrainSpec(epochs=1, batch_size=16, max_steps_per_epoch=2, seed=0)
        counted = []
        trainer = SupervisedTrainer(predictor, spec)
        original = trainer.predictor.predict_arrays

        def counting(*args, **kwargs):
            counted.append(1)
            return original(*args, **kwargs)

        trainer.predictor.predict_arrays = counting
        trainer.fit(tiny_dataset)
        # 2 training steps plus one validation pass through predict().
        assert sum(counted) <= 4

    def test_verbose_prints(self, tiny_dataset, capsys):
        make_trainer(tiny_dataset, epochs=1).fit(tiny_dataset, verbose=True)
        assert "epoch 1/1" in capsys.readouterr().out


class TestObservability:
    def test_fit_emits_valid_run_log(self, tiny_dataset, tmp_path):
        trainer = make_trainer(tiny_dataset, epochs=2)
        recorder = RunRecorder(tmp_path / "run")
        history = trainer.fit(tiny_dataset, recorder=recorder)
        recorder.close()
        assert validate_run_dir(recorder.directory) == []
        events = [
            json.loads(line)
            for line in recorder.events_path.read_text().splitlines()
            if line.strip()
        ]
        epochs = [e for e in events if e["kind"] == "epoch"]
        assert len(epochs) == history.epochs_run == 2
        assert all(np.isfinite(e["grad_norm"]) for e in epochs)
        steps = [e for e in events if e["kind"] == "step"]
        assert len(steps) == 2 * 8  # epochs * max_steps_per_epoch
        manifest = json.loads(recorder.manifest_path.read_text())
        assert manifest["trainer"] == "SupervisedTrainer"
        assert "train_step" in manifest["sections"]

    def test_grad_norm_history_tracked(self, tiny_dataset):
        history = make_trainer(tiny_dataset, epochs=2).fit(tiny_dataset)
        assert len(history.grad_norm) == 2
        assert np.all(np.isfinite(history.grad_norm))

    def test_recorder_does_not_change_trajectory(self, tiny_dataset, tmp_path):
        plain = make_trainer(tiny_dataset, seed=9).fit(tiny_dataset)
        recorder = RunRecorder(tmp_path / "run")
        observed = make_trainer(tiny_dataset, seed=9).fit(tiny_dataset, recorder=recorder)
        recorder.close()
        np.testing.assert_allclose(plain.train_loss, observed.train_loss)


class TestValidationLoss:
    def test_positive(self, tiny_dataset):
        trainer = make_trainer(tiny_dataset)
        assert trainer.validation_loss(tiny_dataset) > 0.0

    def test_nan_when_no_validation(self, tiny_series):
        from repro.data import FeatureConfig, TrafficDataset, split_windows

        split = split_windows(
            1700, validation_fraction=0.0, rng=np.random.default_rng(0), window_span=13
        )
        # Rebuild with matching window count.
        config = FeatureConfig()
        n = tiny_series.num_steps - config.alpha - config.beta + 1
        split = split_windows(n, validation_fraction=0.0, rng=np.random.default_rng(0), window_span=13)
        ds = TrafficDataset(tiny_series, config, split=split)
        if len(ds.split.validation) == 0:
            trainer = make_trainer(ds)
            assert np.isnan(trainer.validation_loss(ds))
