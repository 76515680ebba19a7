"""Data-parallel supervised training over a worker group.

:class:`DataParallelTrainer` is a drop-in :class:`SupervisedTrainer`
that splits every minibatch into contiguous shards, has one replica
process per shard compute the shard's gradient, averages the gradients
(weighted by shard size, so the average equals the full-batch gradient)
and applies **one** synchronized Adam step in the parent.  Everything
else — batch order, early stopping, gradient clipping, obs events —
is inherited unchanged, which is what pins the equivalence:

* ``workers=1`` never spawns a process and is *bitwise* identical to
  :class:`SupervisedTrainer` (it literally runs the parent class's
  step);
* ``workers>1`` matches the serial trainer step-for-step up to
  floating-point summation order (the per-shard partial sums of the
  same per-sample terms), held to tight tolerance by
  ``tests/core/test_data_parallel.py``.

The wire protocol is deliberately dumb: the parent ships the current
parameter arrays plus the shard's batch arrays down a pipe each step
and gets ``(loss, n_samples, gradients)`` back
(:class:`repro.parallel.WorkerGroup`).  On this numpy substrate the
arrays are small and pipe transport is cheap relative to the
forward/backward work; replicas hold no optimiser state, so a restart
can rebuild the group from the parent's parameters at any step.

Because the predictors' forward is deterministic (no dropout in any
Table I architecture), replicas need no RNG coordination; if a
stochastic layer is ever added, shard gradients would need per-shard
seeds derived the :mod:`repro.parallel.seeding` way and the
serial-equivalence pin would have to be relaxed.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..data.dataset import TrafficDataset
from ..obs import RunRecorder
from ..parallel import WorkerGroup
from .config import TrainSpec
from .predictors import Predictor
from .trainer import SupervisedTrainer, TrainHistory

__all__ = ["DataParallelTrainer"]


class _Replica:
    """Worker-side model copy answering gradient requests."""

    def __init__(self, predictor: Predictor):
        self.predictor = predictor
        self.params = predictor.parameters()
        self.loss_fn = nn.MSELoss()

    def grad_shard(self, param_arrays, images, day_types, flat, targets):
        """The shard's (mean loss, sample count, gradient arrays)."""
        for param, array in zip(self.params, param_arrays):
            param.data = array
        prediction = self.predictor.predict_arrays(images, day_types, flat)
        loss = self.loss_fn(prediction, targets)
        for param in self.params:
            param.zero_grad()
        loss.backward()
        grads = [None if p.grad is None else np.array(p.grad) for p in self.params]
        return loss.item(), int(images.shape[0]), grads


class _ReplicaFactory:
    """Picklable factory building the replica inside the worker."""

    def __init__(self, predictor: Predictor):
        self.predictor = predictor

    def __call__(self) -> _Replica:
        return _Replica(self.predictor)


class DataParallelTrainer(SupervisedTrainer):
    """Shard minibatch gradients across processes; one Adam step per batch.

    Parameters match :class:`SupervisedTrainer` plus:

    workers:
        Number of replica processes.  ``<= 1`` is the exact serial path.
    context:
        Multiprocessing start method (``"fork"``/``"spawn"``/None for
        the platform default).  Spawn works because the replica factory
        ships the predictor by pickle.
    """

    def __init__(
        self,
        predictor: Predictor,
        spec: TrainSpec | None = None,
        workers: int = 2,
        context=None,
    ):
        super().__init__(predictor, spec)
        if workers < 0:
            raise ValueError(f"workers must be non-negative, got {workers}")
        self.workers = workers
        self.context = context
        self._group: WorkerGroup | None = None
        self._params = predictor.parameters()

    # ------------------------------------------------------------------
    def fit(
        self,
        dataset: TrafficDataset,
        verbose: bool = False,
        recorder: RunRecorder | None = None,
    ) -> TrainHistory:
        if self.workers <= 1:
            return super().fit(dataset, verbose=verbose, recorder=recorder)
        self._group = WorkerGroup(
            _ReplicaFactory(self.predictor), self.workers, context=self.context
        )
        try:
            return super().fit(dataset, verbose=verbose, recorder=recorder)
        finally:
            self._group.close()
            self._group = None

    # ------------------------------------------------------------------
    def _shards(self, n: int) -> list[slice]:
        """Contiguous, near-even, non-empty sample slices of ``range(n)``."""
        bounds = np.linspace(0, n, num=min(self.workers, n) + 1, dtype=int)
        return [
            slice(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo
        ]

    def _train_step(self, batch) -> tuple[float, float]:
        shards = self._shards(batch.images.shape[0]) if self._group is not None else []
        if len(shards) <= 1:
            # One shard would round-trip arrays for nothing — and with a
            # single shard the serial step is the same computation.
            return super()._train_step(batch)
        param_arrays = [param.data for param in self._params]
        calls = [
            (
                param_arrays,
                batch.images[shard],
                batch.day_types[shard],
                batch.flat[shard],
                batch.targets[shard],
            )
            for shard in shards
        ]
        replies = self._group.scatter("grad_shard", calls)
        total = sum(count for _, count, _ in replies)
        loss_value = sum(loss * count for loss, count, _ in replies) / total
        for position, param in enumerate(self._params):
            accumulated = None
            for _, count, grads in replies:
                grad = grads[position]
                if grad is None:
                    continue
                weighted = (count / total) * grad
                accumulated = weighted if accumulated is None else accumulated + weighted
            param.grad = accumulated
        grad_norm = nn.clip_grad_norm(self._params, self.spec.grad_clip)
        self.optimizer.step()
        return float(loss_value), grad_norm
