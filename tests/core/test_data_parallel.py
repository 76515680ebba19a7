"""Serial-equivalence pin for :class:`repro.core.DataParallelTrainer`.

The whole value of the data-parallel trainer is that it changes *where*
gradients are computed without changing *what* is computed: the weighted
shard-gradient average equals the full-batch gradient, so the trainer
must track :class:`SupervisedTrainer` step-for-step.  ``workers=1`` is
literally the parent class's code path and is asserted bitwise;
``workers>1`` reorders floating-point summation across shard boundaries
and is held to a tight tolerance instead.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    DataParallelTrainer,
    SupervisedTrainer,
    TrainSpec,
    build_predictor,
    table1_spec,
)

#: Summation-order drift only: shards re-associate the same per-sample
#: terms, so anything beyond a few ulps of the loss scale is a bug.
TOLERANCE = 1e-9


def _predictor(dataset, seed=0):
    return build_predictor(
        "F", dataset.config, spec=table1_spec("F", 0.05), rng=np.random.default_rng(seed)
    )


def _spec(epochs=2, seed=0):
    return TrainSpec(epochs=epochs, batch_size=64, max_steps_per_epoch=6, seed=seed)


def _fit(trainer_cls, dataset, seed=0, **kwargs):
    predictor = _predictor(dataset, seed=seed)
    trainer = trainer_cls(predictor, _spec(seed=seed), **kwargs)
    history = trainer.fit(dataset)
    return predictor, history


class TestSerialEquivalence:
    def test_workers_1_is_bitwise_serial(self, tiny_dataset):
        serial_pred, serial_hist = _fit(SupervisedTrainer, tiny_dataset)
        dp_pred, dp_hist = _fit(DataParallelTrainer, tiny_dataset, workers=1)
        assert serial_hist.train_loss == dp_hist.train_loss
        assert serial_hist.grad_norm == dp_hist.grad_norm
        for ours, theirs in zip(serial_pred.parameters(), dp_pred.parameters()):
            assert np.array_equal(ours.data, theirs.data)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_parallel_matches_serial_step_for_step(self, tiny_dataset, workers):
        serial_pred, serial_hist = _fit(SupervisedTrainer, tiny_dataset)
        dp_pred, dp_hist = _fit(DataParallelTrainer, tiny_dataset, workers=workers)
        np.testing.assert_allclose(
            dp_hist.train_loss, serial_hist.train_loss, rtol=0, atol=TOLERANCE
        )
        np.testing.assert_allclose(
            dp_hist.grad_norm, serial_hist.grad_norm, rtol=0, atol=TOLERANCE
        )
        np.testing.assert_allclose(
            dp_hist.validation_loss, serial_hist.validation_loss, rtol=0, atol=TOLERANCE
        )
        for ours, theirs in zip(serial_pred.parameters(), dp_pred.parameters()):
            np.testing.assert_allclose(theirs.data, ours.data, rtol=0, atol=TOLERANCE)

    def test_parallel_predictions_match_serial(self, tiny_dataset):
        serial_pred, _ = _fit(SupervisedTrainer, tiny_dataset)
        dp_pred, _ = _fit(DataParallelTrainer, tiny_dataset, workers=2)
        indices = tiny_dataset.subset("validation")[:64]
        batch = tiny_dataset.batch(indices)
        serial_out = serial_pred.predict_arrays(batch.images, batch.day_types, batch.flat)
        dp_out = dp_pred.predict_arrays(batch.images, batch.day_types, batch.flat)
        np.testing.assert_allclose(dp_out.data, serial_out.data, rtol=0, atol=1e-7)


class TestLifecycle:
    def test_workers_validation(self, tiny_dataset):
        with pytest.raises(ValueError, match="workers"):
            DataParallelTrainer(_predictor(tiny_dataset), _spec(), workers=-1)

    def test_group_closed_after_fit(self, tiny_dataset):
        trainer = DataParallelTrainer(_predictor(tiny_dataset), _spec(epochs=1), workers=2)
        trainer.fit(tiny_dataset)
        assert trainer._group is None

    def test_refit_rebuilds_group(self, tiny_dataset):
        trainer = DataParallelTrainer(_predictor(tiny_dataset), _spec(epochs=1), workers=2)
        first = trainer.fit(tiny_dataset)
        second = trainer.fit(tiny_dataset)
        assert first.epochs_run == second.epochs_run == 1


class TestSharding:
    def test_shards_partition_evenly(self, tiny_dataset):
        trainer = DataParallelTrainer(_predictor(tiny_dataset), _spec(), workers=3)
        shards = trainer._shards(10)
        covered = [i for s in shards for i in range(s.start, s.stop)]
        assert covered == list(range(10))
        sizes = [s.stop - s.start for s in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_fewer_samples_than_workers(self, tiny_dataset):
        trainer = DataParallelTrainer(_predictor(tiny_dataset), _spec(), workers=8)
        shards = trainer._shards(3)
        assert len(shards) == 3
        assert all(s.stop - s.start == 1 for s in shards)

    def test_single_sample_single_shard(self, tiny_dataset):
        trainer = DataParallelTrainer(_predictor(tiny_dataset), _spec(), workers=4)
        assert trainer._shards(1) == [slice(0, 1)]
