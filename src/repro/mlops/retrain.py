"""Background retraining: from a history snapshot to a challenger checkpoint.

"Background" here means *off the predict hot path*: the controller runs
the retrain between ticks on its own control loop, never inside a
forecast request.  The run itself is synchronous and deterministic —
the trigger event carries a seed derived from ``(controller seed,
trigger count)`` via :func:`repro.parallel.derive_task_seed`, so a
replayed run log reproduces the identical challenger bitwise.

The challenger starts from the champion's weights (warm start: a fresh
``load_model`` of the champion directory) and is fine-tuned with the
plain :class:`repro.core.SupervisedTrainer` — or
:class:`repro.core.DataParallelTrainer` when ``workers > 1`` — on a
**time-ordered** split of the history snapshot: the most recent
``holdout_fraction`` of windows is held out for shadow evaluation, an
``alpha + beta``-window gap before it prevents train/holdout sample
overlap, and training sees only the older remainder.  The champion's
scalers are reused (not refitted) so the held-out windows feed champion
and challenger identically, and so the serving store's scaling is
unchanged by a swap.  Adversarial champions are fine-tuned supervised
(predictor only) — the discriminator rides along untouched; online
drift correction needs the forecaster, not the GAN game.

Failures are a *result*, not an exception: a retrainer that dies
mid-run reports ``status="failed"`` and the controller backs off into
cooldown with the champion still serving (DESIGN.md §14 failure model).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core.config import TrainSpec
from ..core.data_parallel import DataParallelTrainer
from ..core.trainer import SupervisedTrainer
from ..core.zoo import load_model, save_model
from ..data.dataset import TrafficDataset
from ..data.profile import ReferenceProfile
from ..data.split import SplitIndices
from ..obs import RunRecorder
from ..traffic.types import TrafficSeries

__all__ = ["RetrainSpec", "RetrainResult", "retrain_challenger"]


@dataclass(frozen=True)
class RetrainSpec:
    """Fine-tuning knobs for one challenger run."""

    epochs: int = 2
    batch_size: int = 64
    learning_rate: float = 0.001
    max_steps_per_epoch: int | None = None
    holdout_fraction: float = 0.25  # newest windows reserved for shadow eval
    min_windows: int = 48  # refuse to retrain on less history than this
    min_holdout: int = 8  # shadow eval needs at least this many windows
    workers: int = 1  # >1 routes through DataParallelTrainer

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ValueError("holdout_fraction must be in (0, 1)")
        if self.min_windows < 4 or self.min_holdout < 1:
            raise ValueError("min_windows/min_holdout too small")


@dataclass
class RetrainResult:
    """Outcome of one retrain: a challenger directory, or why not.

    ``status`` is one of ``"ok"``, ``"insufficient_history"``,
    ``"failed"``.  On ``"ok"``, ``challenger_dir`` holds the saved
    checkpoint and ``dataset`` / ``holdout`` are the shadow-evaluation
    inputs (the challenger never saw the holdout windows).
    """

    status: str
    seed: int
    num_windows: int = 0
    duration_s: float = 0.0
    challenger_dir: Path | None = None
    dataset: TrafficDataset | None = None
    holdout: np.ndarray | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _time_ordered_split(num_windows: int, holdout: int, gap: int) -> SplitIndices:
    """Train on the past, hold out the most recent windows, gap between."""
    holdout_start = num_windows - holdout
    train_stop = max(holdout_start - gap, 0)
    return SplitIndices(
        train=np.arange(0, train_stop),
        validation=np.array([], dtype=np.int64),
        test=np.arange(holdout_start, num_windows),
    )


def retrain_challenger(
    champion_dir: str | Path,
    history: TrafficSeries,
    spec: RetrainSpec | None = None,
    seed: int = 0,
    workdir: str | Path = "challenger",
    recorder: RunRecorder | None = None,
) -> RetrainResult:
    """Fine-tune the champion on recent history; save the challenger.

    Emits ``mlops_retrain_start`` / ``mlops_retrain_end`` events and
    never raises for a failed training run — see module docstring.
    """
    spec = spec if spec is not None else RetrainSpec()
    started = time.perf_counter()

    def emit(kind: str, **fields) -> None:
        if recorder is not None:
            recorder.event(kind, **fields)

    try:
        challenger = load_model(champion_dir)
        if challenger.scalers is None:
            raise ValueError("champion checkpoint lacks scalers; cannot fine-tune")
        config = challenger.features
        dataset = TrafficDataset(
            history,
            config,
            split=SplitIndices(  # placeholder; replaced once num_windows known
                train=np.array([0]), validation=np.array([], dtype=np.int64), test=np.array([1])
            ),
            scalers=challenger.scalers,
        )
        num_windows = dataset.features.num_windows
        holdout = max(spec.min_holdout, int(round(num_windows * spec.holdout_fraction)))
        gap = config.alpha + config.beta
        if num_windows < max(spec.min_windows, holdout + gap + spec.batch_size // 2):
            emit(
                "mlops_retrain_end",
                status="insufficient_history",
                num_windows=num_windows,
                duration_s=time.perf_counter() - started,
            )
            return RetrainResult(
                status="insufficient_history",
                seed=seed,
                num_windows=num_windows,
                duration_s=time.perf_counter() - started,
                error=f"only {num_windows} windows of history",
            )
        dataset.split = _time_ordered_split(num_windows, holdout, gap)

        emit("mlops_retrain_start", seed=seed, num_windows=num_windows, epochs=spec.epochs)
        train_spec = TrainSpec(
            learning_rate=spec.learning_rate,
            epochs=spec.epochs,
            batch_size=spec.batch_size,
            max_steps_per_epoch=spec.max_steps_per_epoch,
            seed=seed,
        )
        if spec.workers > 1:
            trainer: SupervisedTrainer = DataParallelTrainer(
                challenger.predictor, train_spec, workers=spec.workers
            )
        else:
            trainer = SupervisedTrainer(challenger.predictor, train_spec)
        challenger.history = trainer.fit(dataset, recorder=recorder)
        challenger.reference_profile = ReferenceProfile.from_series(history)
        challenger_dir = save_model(challenger, Path(workdir))
    except Exception as exc:  # a dead retrainer must not kill serving
        duration = time.perf_counter() - started
        emit("mlops_retrain_end", status="failed", num_windows=0, duration_s=duration)
        return RetrainResult(
            status="failed", seed=seed, duration_s=duration, error=f"{type(exc).__name__}: {exc}"
        )

    duration = time.perf_counter() - started
    emit("mlops_retrain_end", status="ok", num_windows=num_windows, duration_s=duration)
    return RetrainResult(
        status="ok",
        seed=seed,
        num_windows=num_windows,
        duration_s=duration,
        challenger_dir=challenger_dir,
        dataset=dataset,
        holdout=dataset.split.test,
    )
