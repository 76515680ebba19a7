"""Behavioural tests of the adversarial game beyond one-step mechanics."""

import numpy as np
import pytest

from repro.core import APOTSTrainer, Discriminator, TrainSpec, build_predictor, table1_spec


def make_trainer(dataset, epochs=6, seed=0, **overrides):
    rng = np.random.default_rng(seed)
    spec = table1_spec("F", 0.05)
    predictor = build_predictor("F", dataset.config, spec=spec, rng=rng)
    disc = Discriminator(dataset.config, spec=spec, conditional=False, rng=rng)
    defaults = dict(
        epochs=epochs, adversarial_batch_size=16, max_steps_per_epoch=12, seed=seed
    )
    defaults.update(overrides)
    return APOTSTrainer(predictor, disc, TrainSpec(**defaults))


class TestDiscriminatorLearnsTheTask:
    def test_d_separates_real_from_untrained_predictor(self, tiny_dataset):
        """Early in training, D should tell noise-like predictions from
        real smooth speed sequences."""
        trainer = make_trainer(tiny_dataset, epochs=3)
        trainer.fit(tiny_dataset)
        anchors = tiny_dataset.rollout_anchors("train")[:64]
        batch = tiny_dataset.rollout_batch(anchors)
        alpha = tiny_dataset.config.alpha
        real = batch.real_sequences(alpha)
        rng = np.random.default_rng(1)
        noise = rng.random(real.shape)  # plainly fake sequences
        real_prob = trainer.discriminator.probability(real).mean()
        noise_prob = trainer.discriminator.probability(noise).mean()
        assert real_prob > noise_prob

    def test_game_stays_balanced(self, tiny_dataset):
        """Neither player should collapse: fake prob away from 0 and 1."""
        trainer = make_trainer(tiny_dataset, epochs=6)
        history = trainer.fit(tiny_dataset)
        final_fake = history.discriminator_fake_prob[-1]
        assert 0.02 < final_fake < 0.98

    def test_more_d_steps_strengthen_discriminator(self, tiny_dataset):
        weak = make_trainer(tiny_dataset, epochs=3, discriminator_steps=1, seed=2)
        strong = make_trainer(tiny_dataset, epochs=3, discriminator_steps=3, seed=2)
        weak_hist = weak.fit(tiny_dataset)
        strong_hist = strong.fit(tiny_dataset)
        # A D trained 3x as often should judge fakes at least as harshly.
        assert strong_hist.discriminator_fake_prob[-1] <= weak_hist.discriminator_fake_prob[-1] + 0.1


class TestRolloutConsistency:
    def test_rollout_predictions_match_plain_forward(self, tiny_dataset):
        """The rolled sequence is just the predictor applied per window."""
        trainer = make_trainer(tiny_dataset, epochs=1)
        trainer.fit(tiny_dataset)
        anchors = tiny_dataset.rollout_anchors("train")[:4]
        batch = tiny_dataset.rollout_batch(anchors)
        alpha = tiny_dataset.config.alpha
        sequences = trainer._rolled_sequences(batch, alpha)
        direct = trainer.predictor.predict(
            batch.group_images, batch.group_day_types, batch.group_flat
        )
        np.testing.assert_allclose(
            sequences.reshape(-1), direct, rtol=1e-8, atol=1e-10
        )

    def test_anchor_prediction_is_last_sequence_entry(self, tiny_dataset):
        trainer = make_trainer(tiny_dataset, epochs=1)
        trainer.fit(tiny_dataset)
        anchors = tiny_dataset.rollout_anchors("train")[:4]
        batch = tiny_dataset.rollout_batch(anchors)
        alpha = tiny_dataset.config.alpha
        sequences = trainer._rolled_sequences(batch, alpha)
        anchor_batch = tiny_dataset.batch(anchors)
        direct = trainer.predictor.predict(
            anchor_batch.images, anchor_batch.day_types, anchor_batch.flat
        )
        np.testing.assert_allclose(sequences[:, -1], direct, rtol=1e-8, atol=1e-10)
