"""Event and manifest schema for :mod:`repro.obs` run logs.

Hand-rolled (no jsonschema dependency in this environment): the schema
is a dict from event ``kind`` to the required kind-specific fields and
their types, and the validator walks a run directory checking

* ``manifest.json`` carries the required identity fields, and
* every ``events.jsonl`` line carries the common envelope
  (``seq``/``ts``/``kind``) plus its kind's required fields.

``tools/ci.sh`` runs this (via ``tools/obs_smoke.py``) against a real
2-epoch adversarial training so the schema can never drift from what
the trainers actually emit.

Numbers may legitimately be NaN/Inf (a NaN loss is exactly what the
run log must capture), so numeric fields accept any float/int and the
file is parsed with Python's ``json``, which round-trips them.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["EVENT_SCHEMA", "MANIFEST_REQUIRED", "validate_event", "validate_run_dir"]

_NUM = (int, float)
_STR = (str,)
_INT = (int,)
_BOOL = (bool,)

#: kind -> {field: accepted types}. The envelope (seq/ts/kind) is
#: required for every event and checked separately.
EVENT_SCHEMA: dict[str, dict[str, tuple[type, ...]]] = {
    # Supervised trainer -------------------------------------------------
    "step": {"epoch": _INT, "step": _INT, "loss": _NUM, "grad_norm": _NUM},
    "epoch": {
        "epoch": _INT,
        "train_loss": _NUM,
        "validation_loss": _NUM,
        "grad_norm": _NUM,
    },
    "early_stop": {"epoch": _INT, "patience": _INT},
    # Adversarial trainer ------------------------------------------------
    "d_step": {
        "epoch": _INT,
        "step": _INT,
        "loss": _NUM,
        "real_prob": _NUM,
        "fake_prob": _NUM,
        "grad_norm": _NUM,
    },
    "p_step": {
        "epoch": _INT,
        "step": _INT,
        "loss": _NUM,
        "mse_loss": _NUM,
        "adv_loss": _NUM,
        "adv_share": _NUM,
        "grad_norm": _NUM,
        "fake_std": _NUM,
    },
    "adv_epoch": {
        "epoch": _INT,
        "predictor_loss": _NUM,
        "mse_loss": _NUM,
        "adversarial_loss": _NUM,
        "discriminator_loss": _NUM,
        "discriminator_real_prob": _NUM,
        "discriminator_fake_prob": _NUM,
        "predictor_grad_norm": _NUM,
        "discriminator_grad_norm": _NUM,
    },
    # Harness / monitors -------------------------------------------------
    "model_fit": {"name": _STR},
    "warning": {"code": _STR, "message": _STR},
    # Worker pool (repro.parallel) ---------------------------------------
    # Emitted by the parent process only (workers never hold the
    # recorder), so one map's events interleave but never corrupt.
    "pool_task_start": {"task": _INT, "attempt": _INT, "worker": _INT},
    "pool_task_end": {"task": _INT, "attempt": _INT, "worker": _INT, "duration_s": _NUM},
    "pool_task_retry": {"task": _INT, "attempt": _INT, "reason": _STR},
    # Forecast fleet (repro.fleet) ---------------------------------------
    # Emitted by the fleet parent process only (replicas never hold the
    # recorder).  `fleet_shed` aggregates one shard's sheds per call so
    # the log stays bounded under overload; `fleet_ingest_rejected` is one
    # event per refused ingest batch, naming its first fault.
    "fleet_shard_lost": {"shard": _INT, "method": _STR, "reason": _STR},
    "fleet_ingest_rejected": {"reason": _STR, "count": _INT},
    "fleet_shed": {"shard": _INT, "count": _INT, "queue_depth": _INT, "reason": _STR},
    "fleet_drain": {
        "served": _INT,
        "shed": _INT,
        "max_queue_depth": _INT,
        "duration_s": _NUM,
    },
    "fleet_loadgen_summary": {
        "rate": _NUM,
        "offered": _INT,
        "served": _INT,
        "shed": _INT,
        "shed_rate": _NUM,
        "offered_qps": _NUM,
        "served_qps": _NUM,
        "p50_ms": _NUM,
        "p99_ms": _NUM,
    },
    "fleet_swap": {"shards_swapped": _INT, "fingerprint": _STR},
    # A swap the parent's checks refused (checkpoint fingerprints, feature
    # geometry, scalers): nothing was sent to any replica.
    "fleet_swap_refused": {"reason": _STR},
    # A replica could not pin numpy's bundled OpenBLAS to one thread.
    "blas_threads_unpinned": {"library": _STR},
    # Continual learning (repro.mlops) -----------------------------------
    # Emitted by the drift monitors and the controller in the serving
    # parent process.  `drift_*` events record every evaluation (so the
    # hysteresis trail is reconstructable); `mlops_*` events record the
    # pipeline transitions trigger -> retrain -> shadow -> swap and the
    # post-swap guardband outcome (rollback or acceptance).
    "drift_error": {
        "samples": _INT,
        "regime": _STR,
        "rolling_mae": _NUM,
        "baseline_mae": _NUM,
        "ratio": _NUM,
        "threshold": _NUM,
        "breaches": _INT,
        "triggered": _BOOL,
    },
    "drift_input": {
        "samples": _INT,
        "psi": _NUM,
        "psi_threshold": _NUM,
        "mean_kmh": _NUM,
        "reference_mean_kmh": _NUM,
        "conditioned": _BOOL,
        "breaches": _INT,
        "triggered": _BOOL,
    },
    "mlops_trigger": {"monitor": _STR, "reason": _STR, "step": _INT, "seed": _INT},
    "mlops_retrain_start": {"seed": _INT, "num_windows": _INT, "epochs": _INT},
    "mlops_retrain_end": {"status": _STR, "num_windows": _INT, "duration_s": _NUM},
    "mlops_shadow": {
        "champion_mae": _NUM,
        "challenger_mae": _NUM,
        "rel_improvement": _NUM,
        "num_samples": _INT,
        "promote": _BOOL,
        "reason": _STR,
    },
    "mlops_swap": {
        "fingerprint": _STR,
        "previous_fingerprint": _STR,
        "shards": _INT,
    },
    "mlops_rollback": {
        "fingerprint": _STR,
        "restored_fingerprint": _STR,
        "rolling_mae": _NUM,
        "guard_mae": _NUM,
    },
    # Network scenario engine (repro.network via the network experiment) -
    "network_build": {
        "segments": _INT,
        "junctions": _INT,
        "zones": _INT,
        "bfs_ordered": _BOOL,
    },
    "network_simulate": {
        "scenario": _STR,
        "segments": _INT,
        "steps": _INT,
        "duration_s": _NUM,
    },
    "network_kpis": {
        "scenario": _STR,
        "vkt": _NUM,
        "vht": _NUM,
        "mean_speed_kmh": _NUM,
        "congested_share": _NUM,
        "spillback_onsets": _INT,
    },
    # Graph-neighbourhood training on network streams --------------------
    "network_train": {
        "model": _STR,
        "targets": _INT,
        "windows": _INT,
        "k": _INT,
        "duration_s": _NUM,
        "fingerprint": _STR,
    },
    # Per-phase scenario-stress forecast degradation ----------------------
    "network_stress": {
        "model": _STR,
        "phase": _STR,
        "samples": _INT,
        "baseline_mae": _NUM,
        "stressed_mae": _NUM,
        "degradation": _NUM,
    },
    # Adversarial robustness (repro.attacks) -----------------------------
    "attack_step": {"attack": _STR, "epsilon": _NUM, "step": _INT, "loss": _NUM},
    # Input-space adversarial training (repro.core.adversarial_training) -
    "adv_train_step": {
        "epoch": _INT,
        "step": _INT,
        "epsilon": _NUM,
        "num_perturbed": _INT,
        "num_samples": _INT,
        "clean_loss": _NUM,
        "robust_loss": _NUM,
        "max_abs_delta_kmh": _NUM,
    },
    # Paired before/after sweep delta (adv_train experiment) -------------
    "robustness_delta": {
        "attack": _STR,
        "epsilon": _NUM,
        "attacked_mae_before": _NUM,
        "attacked_mae_after": _NUM,
        "clean_mae_before": _NUM,
        "clean_mae_after": _NUM,
    },
    "robustness_summary": {
        "attack": _STR,
        "epsilon": _NUM,
        "num_samples": _INT,
        "clean_mae": _NUM,
        "attacked_mae": _NUM,
        "clean_rmse": _NUM,
        "attacked_rmse": _NUM,
        "clean_mape": _NUM,
        "attacked_mape": _NUM,
    },
}

#: Fields every manifest.json must carry from the moment it is created.
MANIFEST_REQUIRED = ("run_id", "started_at", "git", "python", "numpy")


def validate_event(event: dict) -> list[str]:
    """Schema errors for one decoded event dict (empty list = valid)."""
    errors: list[str] = []
    for field, types in (("seq", _INT), ("ts", _NUM), ("kind", _STR)):
        value = event.get(field)
        # bool is an int subclass; never a valid numeric field here.
        if not isinstance(value, types) or isinstance(value, bool):
            errors.append(f"envelope field {field!r} missing or not {types[0].__name__}")
    kind = event.get("kind")
    if not isinstance(kind, str):
        return errors
    required = EVENT_SCHEMA.get(kind)
    if required is None:
        errors.append(f"unknown event kind {kind!r}")
        return errors
    for field, types in required.items():
        value = event.get(field)
        if bool in types:
            # Declared-bool fields require an actual bool (0/1 rejected).
            if not isinstance(value, bool):
                errors.append(f"{kind}: field {field!r} missing or not bool")
        elif not isinstance(value, types) or isinstance(value, bool):
            errors.append(f"{kind}: field {field!r} missing or not {types[0].__name__}")
    return errors


def validate_run_dir(directory: str | Path) -> list[str]:
    """All schema errors for one run directory (empty list = valid)."""
    directory = Path(directory)
    errors: list[str] = []

    manifest_path = directory / "manifest.json"
    if not manifest_path.is_file():
        errors.append("manifest.json missing")
    else:
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            errors.append(f"manifest.json: invalid JSON ({exc})")
        else:
            errors.extend(
                f"manifest.json: missing field {field!r}"
                for field in MANIFEST_REQUIRED
                if field not in manifest
            )

    events_path = directory / "events.jsonl"
    if not events_path.is_file():
        errors.append("events.jsonl missing")
        return errors
    previous_seq = -1
    with events_path.open(encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append(f"events.jsonl:{lineno}: invalid JSON ({exc})")
                continue
            errors.extend(f"events.jsonl:{lineno}: {err}" for err in validate_event(event))
            seq = event.get("seq")
            if isinstance(seq, int) and not isinstance(seq, bool):
                if seq <= previous_seq:
                    errors.append(
                        f"events.jsonl:{lineno}: seq {seq} not monotonic "
                        f"(previous {previous_seq})"
                    )
                previous_seq = seq
    return errors
