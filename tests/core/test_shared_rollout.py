"""Bitwise pins for the shared APOTS rollout.

:class:`APOTSTrainer` rolls the predictor once per (batch, predictor
version) and lets every D step and the P step of that batch read the
same predicted sequences.  Sharing the rollout changes how often P runs,
never what it computes, so the trained weights must be *bitwise* those
of a trainer that re-rolls P for each sub-step.  The literals below are
the ``model_fingerprint`` values such a trainer produced; any drift in
values or accumulation order moves them.
"""

import numpy as np
import pytest

from repro.core import APOTS, TrainSpec
from repro.core.predictors import HybridPredictor
from repro.core.zoo import model_fingerprint
from tests.conftest import MICRO_PRESET

EPOCHS = 2
STEPS = 3


def _fit(dataset, conditional=True, **overrides):
    spec = TrainSpec(
        epochs=EPOCHS, adversarial_batch_size=8, max_steps_per_epoch=STEPS, seed=7, **overrides
    )
    model = APOTS(
        "H",
        adversarial=True,
        conditional=conditional,
        preset=MICRO_PRESET,
        train_spec=spec,
        seed=11,
    )
    return model.fit(dataset)


class TestFingerprintPins:
    @pytest.mark.parametrize(
        "overrides,expected",
        [
            (dict(discriminator_steps=0), "18da4b5402c27e154f3f2823"),
            (dict(discriminator_steps=1), "d10674f001f4a7f11e94b8af"),
            (dict(discriminator_steps=2), "9e9838937e43e1132623e85e"),
            # The augmenter swaps the batch object before the D steps.
            (dict(discriminator_steps=1, robust_fraction=0.5), "0aa7b9651baf550ca7e3aaa2"),
            (dict(discriminator_steps=2, robust_fraction=0.5), "a01ae2b154bbb09c6d956a86"),
        ],
    )
    def test_conditional_fit(self, tiny_dataset, overrides, expected):
        assert model_fingerprint(_fit(tiny_dataset, **overrides)) == expected

    def test_unconditional_fit(self, tiny_dataset):
        model = _fit(tiny_dataset, conditional=False, discriminator_steps=2)
        assert model_fingerprint(model) == "acf789b7b6b1f042ac44fe74"


class TestOneRolloutPerBatch:
    def test_two_d_steps_share_the_p_rollout(self, tiny_dataset, monkeypatch):
        calls_per_batch: list[int] = []
        forward = HybridPredictor.forward
        rollout_batch = tiny_dataset.rollout_batch

        def counted_forward(self, *args):
            calls_per_batch[-1] += 1
            return forward(self, *args)

        def stamped_rollout_batch(anchors):
            calls_per_batch.append(0)
            return rollout_batch(anchors)

        monkeypatch.setattr(HybridPredictor, "forward", counted_forward)
        monkeypatch.setattr(tiny_dataset, "rollout_batch", stamped_rollout_batch)
        model = _fit(tiny_dataset, discriminator_steps=2)
        assert calls_per_batch == [1] * (EPOCHS * STEPS)
        assert np.isfinite(model.history.discriminator_loss).all()

    def test_rollout_is_its_own_section(self, tiny_dataset, tmp_path):
        from repro.obs import RunRecorder

        recorder = RunRecorder(tmp_path / "run")
        spec = TrainSpec(
            epochs=EPOCHS, adversarial_batch_size=8, max_steps_per_epoch=STEPS,
            discriminator_steps=2, seed=7,
        )
        model = APOTS(
            "H", adversarial=True, conditional=True, preset=MICRO_PRESET, train_spec=spec, seed=11
        )
        model.fit(tiny_dataset, recorder=recorder)
        recorder.close()
        counts = {
            name: recorder.telemetry.histogram(f"section.{name}").count
            for name in ("rollout", "d_step", "p_step")
        }
        steps = EPOCHS * STEPS
        assert counts == {"rollout": steps, "d_step": 2 * steps, "p_step": steps}

    def test_no_graph_outlives_its_p_step(self, tiny_dataset):
        from repro.core import APOTSTrainer

        model = APOTS(
            "H", adversarial=True, conditional=True, preset=MICRO_PRESET, seed=11,
            train_spec=TrainSpec(
                epochs=1, adversarial_batch_size=8, max_steps_per_epoch=2,
                discriminator_steps=2, seed=7,
            ),
        )
        trainer = APOTSTrainer(model.predictor, model.discriminator, model.train_spec)
        trainer.fit(tiny_dataset)
        assert trainer._roll_cache is None
        assert trainer._p_version == 2
