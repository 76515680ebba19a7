"""Model persistence: save and load fitted APOTS models.

A checkpoint is a directory holding the predictor (and, when present,
the discriminator) state dicts plus a JSON manifest describing the
architecture, so ``load_model`` can rebuild the exact module graph
before loading weights.

The manifest also records a digest of each weight file's contents and is
written last, by an atomic rename, so it always describes a complete
save.  A save that dies partway over an existing checkpoint leaves the
old manifest beside some new weights; ``load_model`` recomputes the
digests and refuses that mix instead of serving it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path

from ..data.features import FactorMask, FeatureConfig, FeatureScalers
from ..data.graph_features import GraphFeatureConfig, GraphWindowLayout
from ..data.profile import ReferenceProfile
from ..nn import load_state, save_state
from .config import ModelSpec, PRESETS, ScalePreset
from .model import APOTS

__all__ = [
    "save_model",
    "load_model",
    "model_fingerprint",
    "FORMAT_VERSION",
    "SUPPORTED_FORMAT_VERSIONS",
]

_MANIFEST = "manifest.json"
_PREDICTOR = "predictor.npz"
_DISCRIMINATOR = "discriminator.npz"

#: Version written by :func:`save_model`, and the only one read.  The
#: manifest carries the fitted feature scalers, the training-time input
#: reference profile used by drift monitors, and the weight digests.
FORMAT_VERSION = 4
SUPPORTED_FORMAT_VERSIONS = (FORMAT_VERSION,)


def _weights_digest(label: str, module) -> str:
    digest = hashlib.blake2b(digest_size=12)
    digest.update(label.encode())
    for name, array in sorted(module.state_dict().items()):
        digest.update(name.encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def model_fingerprint(model: APOTS) -> str:
    """Stable content hash of a model's predictor weights.

    Two models fingerprint equal iff their predictor kind and every
    weight array are bitwise identical — used to namespace forecast
    cache entries, to label swap/rollback obs events and to check a
    checkpoint's predictor weights on load.
    """
    return _weights_digest(model.kind, model.predictor)


def _discriminator_digest(model: APOTS) -> str | None:
    if model.discriminator is None:
        return None
    return _weights_digest("discriminator", model.discriminator)


def _features_to_dict(features) -> dict:
    payload = {
        "alpha": features.alpha,
        "beta": features.beta,
        "m": features.m,
        "mask": dataclasses.asdict(features.mask),
    }
    if isinstance(features, GraphFeatureConfig):
        # The "graph" key marks a graph-neighbourhood geometry; its
        # presence selects the config class on load.
        layout = features.layout
        payload["graph"] = {
            "num_segments": layout.num_segments,
            "k": layout.k,
            "target_row": layout.target_row,
            "num_rows": layout.num_rows,
            "rows": [list(row) for row in layout.rows],
        }
    return payload


def _features_from_dict(payload: dict):
    mask = FactorMask(**payload["mask"])
    graph = payload.get("graph")
    if graph is not None:
        layout = GraphWindowLayout(
            num_segments=graph["num_segments"],
            k=graph["k"],
            target_row=graph["target_row"],
            num_rows=graph["num_rows"],
            rows=tuple(tuple(row) for row in graph["rows"]),
        )
        return GraphFeatureConfig(
            layout=layout, alpha=payload["alpha"], beta=payload["beta"], mask=mask
        )
    return FeatureConfig(
        alpha=payload["alpha"],
        beta=payload["beta"],
        m=payload["m"],
        mask=mask,
    )


def _spec_to_dict(spec: ModelSpec) -> dict:
    payload = dataclasses.asdict(spec)
    payload["cnn_kernels"] = [list(k) for k in spec.cnn_kernels]
    return payload


def _spec_from_dict(payload: dict) -> ModelSpec:
    payload = dict(payload)
    payload["cnn_kernels"] = [tuple(k) for k in payload["cnn_kernels"]]
    return ModelSpec(**payload)


def save_model(model: APOTS, directory: str | Path) -> Path:
    """Write a fitted APOTS model to ``directory`` (created if missing).

    Returns the directory path.  The training history is not persisted —
    checkpoints capture what is needed for inference and fine-tuning.
    The weight files are written first and the manifest last, by an
    atomic rename, so a manifest only ever appears after every weight
    file it fingerprints is complete.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_state(model.predictor, directory / _PREDICTOR)
    if model.discriminator is not None:
        save_state(model.discriminator, directory / _DISCRIMINATOR)
    manifest = {
        "format_version": FORMAT_VERSION,
        "scalers": model.scalers.state_dict() if model.scalers is not None else None,
        "kind": model.kind,
        "adversarial": model.adversarial,
        "conditional": model.discriminator.conditional if model.discriminator else None,
        "seed": model.seed,
        "preset": model.preset.name if model.preset.name in PRESETS else None,
        "preset_values": dataclasses.asdict(model.preset),
        "features": _features_to_dict(model.features),
        "spec": _spec_to_dict(model.spec),
        "reference_profile": (
            model.reference_profile.state_dict()
            if getattr(model, "reference_profile", None) is not None
            else None
        ),
        "fingerprint": model_fingerprint(model),
        "discriminator_fingerprint": _discriminator_digest(model),
    }
    staged = directory / (_MANIFEST + ".tmp")
    staged.write_text(json.dumps(manifest, indent=2))
    os.replace(staged, directory / _MANIFEST)
    return directory


def load_model(directory: str | Path) -> APOTS:
    """Rebuild an APOTS model from a checkpoint written by save_model."""
    directory = Path(directory)
    manifest_path = directory / _MANIFEST
    if not manifest_path.exists():
        raise FileNotFoundError(f"no APOTS checkpoint at {directory}")
    manifest = json.loads(manifest_path.read_text())
    version = manifest.get("format_version")
    if version not in SUPPORTED_FORMAT_VERSIONS:
        raise ValueError(
            f"unsupported checkpoint format version {version!r} at {directory}; "
            f"this build reads versions {SUPPORTED_FORMAT_VERSIONS} — re-save the "
            f"checkpoint with a matching repro release"
        )

    preset = ScalePreset(**manifest["preset_values"])
    model = APOTS(
        predictor=manifest["kind"],
        features=_features_from_dict(manifest["features"]),
        adversarial=manifest["adversarial"],
        conditional=bool(manifest["conditional"]),
        preset=preset,
        model_spec=_spec_from_dict(manifest["spec"]),
        seed=manifest["seed"],
    )
    if manifest["scalers"] is not None:
        model.scalers = FeatureScalers.from_state(manifest["scalers"])
    if manifest["reference_profile"] is not None:
        model.reference_profile = ReferenceProfile.from_state(manifest["reference_profile"])
    load_state(model.predictor, directory / _PREDICTOR)
    if model.discriminator is not None:
        load_state(model.discriminator, directory / _DISCRIMINATOR)
    if (
        model_fingerprint(model) != manifest["fingerprint"]
        or _discriminator_digest(model) != manifest["discriminator_fingerprint"]
    ):
        raise ValueError(
            f"checkpoint weights at {directory} do not match its manifest's "
            f"fingerprints; the files come from different saves (a torn or "
            f"corrupted save) — re-save the model"
        )
    return model
