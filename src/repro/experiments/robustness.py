"""Adversarial robustness experiment: sweep + serving-side gate drill.

Two phases, one trained model:

1. **Offline sweep** — attack the test split at ``{0.5, 1, 2} x
   epsilon`` with the requested attack and report clean-vs-attacked
   errors per regime (:func:`repro.attacks.evaluate_robustness`).
2. **Serving drill** — replay the corridor into a live
   :class:`~repro.serving.ForecastService` with a
   :class:`~repro.attacks.defense.PerturbationGate`, then inject the
   *same* attack's perturbed readings for the target's neighbourhood,
   tick by tick, and check the gate quarantines the segment (forecasts
   degrade to naive persistence of the last trusted speed instead of
   serving the model on the poisoned window).

The stream injection reuses the offline attack verbatim: for a stream
tick ``t`` the attacked window is the dataset window whose *last input
column* is step ``t`` (window index ``t - alpha + 1``), and the
injected neighbourhood speeds are that window's last-column adversarial
values — exactly what a compromised feed would report at ``t``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..attacks import EvalSlice, PlausibilityBox, build_attack, evaluate_robustness
from ..attacks.defense import GateConfig, PerturbationGate
from ..attacks.report import RobustnessReport
from ..obs import current_recorder
from ..serving import ForecastService, Observation
from .scenario import DEFAULT_SEED, make_dataset, resolve_preset, train_model

__all__ = ["run", "RobustnessResult", "GateDrillResult"]

#: Attack-phase samples per preset (the sweep is O(samples x steps)).
_MAX_SAMPLES = {"smoke": 32, "medium": 128, "paper": 512}

#: Stream ticks attacked during the serving drill.
_ATTACK_TICKS = 12


@dataclass(frozen=True)
class GateDrillResult:
    """Telemetry of the serving-side drill."""

    gate_jump_kmh: float
    warmup_ticks: int
    attacked_ticks: int
    recovery_ticks: int
    warmup_hits: int
    attack_hits: int
    gate_checks: int
    gate_degraded_forecasts: int
    degraded_during_attack: int
    served_model_during_attack: int

    def render(self) -> str:
        attacked_queries = self.attacked_ticks + self.recovery_ticks
        lines = [
            "Serving drill: PerturbationGate vs the same attack "
            f"(jump threshold {self.gate_jump_kmh:.1f} km/h)",
            f"  warmup: {self.warmup_ticks} clean ticks, {self.warmup_hits} gate hits "
            "(false positives on natural jumps)",
            f"  attack: {self.attacked_ticks} poisoned ticks + {self.recovery_ticks} "
            f"recovery ticks, {self.attack_hits} gate hits "
            "(onset/removal jumps are the detectable signature)",
            f"  forecasts: {self.degraded_during_attack}/{attacked_queries} degraded to "
            f"trusted persistence, {self.served_model_during_attack} still model-served",
            f"  totals: {self.gate_checks} readings screened, "
            f"{self.gate_degraded_forecasts} gate-degraded forecasts",
        ]
        return "\n".join(lines)


@dataclass(frozen=True)
class RobustnessResult:
    """Offline sweep report + serving drill telemetry."""

    report: RobustnessReport
    drill: GateDrillResult
    attack: str
    epsilon_kmh: float

    def render(self) -> str:
        return self.report.render() + "\n\n" + self.drill.render()


def run(
    preset: str = "medium",
    seed: int = DEFAULT_SEED,
    attack: str = "pgd",
    epsilon: float = 5.0,
    workers: int = 1,
) -> RobustnessResult:
    """Run the robustness experiment (CLI: ``--attack``, ``--epsilon``).

    ``workers > 1`` shards the epsilon sweep across processes (same
    numbers, see :func:`repro.attacks.evaluate_robustness`); the gate
    drill stays serial — it exercises a stateful live service.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive (km/h)")
    preset = resolve_preset(preset)
    recorder = current_recorder()
    dataset = make_dataset(preset, seed=seed)
    model = train_model("H", dataset, preset, adversarial=True, seed=seed)

    max_samples = _MAX_SAMPLES.get(preset.name, 128)
    indices = dataset.subset("test")[:max_samples]
    batch = dataset.batch(indices)
    targets_kmh = dataset.features.targets_kmh[indices]
    last_input_kmh = dataset.features.last_input_kmh[indices]
    eval_slice = EvalSlice(batch.images, batch.day_types, batch.targets,
                           targets_kmh, last_input_kmh)
    epsilons = [0.5 * epsilon, epsilon, 2.0 * epsilon]
    report = evaluate_robustness(
        model.predictor,
        model.scalers,
        eval_slice,
        attack_name=attack,
        epsilons_kmh=epsilons,
        model_name=model.name,
        recorder=recorder,
        seed=seed,
        workers=workers,
    )
    drill = _gate_drill(model, dataset, attack, epsilon, seed)
    return RobustnessResult(report=report, drill=drill, attack=attack, epsilon_kmh=epsilon)


def _gate_drill(model, dataset, attack_name: str, epsilon: float, seed: int) -> GateDrillResult:
    """Route the attack through a gated live service; count quarantines."""
    series = dataset.series
    config = dataset.config
    alpha = config.alpha
    target = series.corridor.target_index
    neighbourhood = config.window_rows(series.num_segments)[target].tolist()

    # A sustained PGD perturbation is a near-constant offset, so its
    # tick-to-tick jumps look natural; the detectable signature is the
    # onset and removal transitions, whose jump approaches epsilon on
    # top of the natural drift.  An operator who knows the plausible
    # threat budget therefore sets the threshold just *below* epsilon —
    # trading some false positives on natural jumps (corridor p90 is
    # ~5.5 km/h; see DESIGN.md §9) for catching the transitions.
    gate_jump = max(4.0, 0.8 * epsilon)
    gate_config = GateConfig(max_jump_kmh=gate_jump)
    gate = PerturbationGate(gate_config)
    service = ForecastService(model, num_segments=series.num_segments, gate=gate)

    warmup_ticks = alpha + 2
    first_attacked = warmup_ticks
    ticks = list(range(first_attacked, first_attacked + _ATTACK_TICKS))
    recovery = list(range(ticks[-1] + 1, ticks[-1] + 1 + gate_config.quarantine_ticks + 2))
    if recovery[-1] >= series.num_steps:
        raise ValueError("series too short for the serving drill")

    # Precompute the attacked stream: one dataset window per attacked
    # tick, its last input column aligned with that tick.
    window_indices = np.asarray([t - alpha + 1 for t in ticks])
    attack_batch = dataset.batch(window_indices)
    constraint = PlausibilityBox(epsilon_kmh=epsilon)
    attack = build_attack(attack_name, model.predictor, model.scalers, constraint, seed=seed)
    attacked = attack.perturb(attack_batch.images, attack_batch.day_types, attack_batch.targets)
    injected_kmh = attacked.speeds_kmh[:, :, -1]  # (ticks, 2m+1)

    def observation(segment: int, step: int, speed: float | None = None) -> Observation:
        return Observation(
            segment_id=segment,
            step=step,
            speed_kmh=float(speed if speed is not None else series.speeds[segment, step]),
            event=float(series.events[segment, step]),
            temperature=float(series.temperature[step]),
            precipitation=float(series.precipitation[step]),
            day_type=tuple(series.day_types[step]),
        )

    for step in range(warmup_ticks):
        service.ingest_many(observation(segment, step) for segment in range(series.num_segments))
    warmup_hits = gate.snapshot()["hits"]

    degraded = 0
    served_model = 0
    for i, step in enumerate(ticks + recovery):
        batch = []
        for segment in range(series.num_segments):
            if segment in neighbourhood and i < len(ticks):
                speed = injected_kmh[i, neighbourhood.index(segment)]
                batch.append(observation(segment, step, speed))
            else:
                batch.append(observation(segment, step))
        service.ingest_many(batch)
        forecast = service.predict(target)
        if forecast.degraded:
            degraded += 1
        else:
            served_model += 1

    snap = service.snapshot()
    gate_snap = snap["gate"]
    return GateDrillResult(
        gate_jump_kmh=gate_jump,
        warmup_ticks=warmup_ticks,
        attacked_ticks=len(ticks),
        recovery_ticks=len(recovery),
        warmup_hits=warmup_hits,
        attack_hits=gate_snap["hits"] - warmup_hits,
        gate_checks=gate_snap["checks"],
        gate_degraded_forecasts=snap["counters"].get("gate_degraded_forecasts", 0),
        degraded_during_attack=degraded,
        served_model_during_attack=served_model,
    )
