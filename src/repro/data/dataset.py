"""Dataset containers and mini-batch iteration.

``TrafficDataset`` glues a simulated series, a feature configuration and
a split into the exact tensors each trainer needs:

* plain supervised batches (window features + scalar target);
* adversarial *rollout groups*: for an anchor window ``i``, the
  ``alpha`` consecutive windows ``i - alpha + 1 .. i`` together with the
  real target sequence the discriminator sees (Section III-A).

The same class serves a corridor (:class:`FeatureConfig`) and a road
graph (:class:`repro.data.graph_features.GraphFeatureConfig`), for one
target segment or several.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from ..traffic.types import TrafficSeries
from .features import FeatureConfig, FeatureScalers, WindowFeatures, build_features, fit_scalers
from .split import SplitIndices, consecutive_runs, split_windows

__all__ = ["Batch", "RolloutBatch", "TrafficDataset", "iterate_batches"]


@dataclass
class Batch:
    """One supervised mini-batch (all arrays row-aligned)."""

    images: np.ndarray  # (B, rows, alpha)
    day_types: np.ndarray  # (B, 4)
    flat: np.ndarray  # (B, flat_dim)
    targets: np.ndarray  # (B,) scaled
    indices: np.ndarray  # (B,) window indices

    def __len__(self) -> int:
        return len(self.targets)


@dataclass
class RolloutBatch:
    """One adversarial mini-batch of anchor groups.

    For B anchors and alpha windows per anchor the group arrays have a
    leading (B * alpha) axis, ordered anchor-major, so that reshaping a
    per-window prediction vector to (B, alpha) yields each anchor's
    predicted sequence in time order.
    """

    group_images: np.ndarray  # (B * alpha, rows, alpha)
    group_day_types: np.ndarray  # (B * alpha, 4)
    group_flat: np.ndarray  # (B * alpha, flat_dim)
    group_targets: np.ndarray  # (B * alpha,) scaled real speeds
    condition: np.ndarray  # (B, condition_dim) anchor-window E
    anchor_targets: np.ndarray  # (B,) scaled target of the anchor window
    anchors: np.ndarray  # (B,) anchor window indices

    @property
    def num_anchors(self) -> int:
        return len(self.anchors)

    def real_sequences(self, alpha: int) -> np.ndarray:
        """(B, alpha) real speed sequences aligned with predictions."""
        return self.group_targets.reshape(self.num_anchors, alpha)


class TrafficDataset:
    """Features + split for one simulated series.

    Windows stack target-major: block ``i`` holds every window of
    ``targets[i]``.  The split is drawn **once** for a single target's
    window range and tiled across blocks with offsets ``i * N`` — a
    window index is train/validation/test based only on its time
    position, so no target leaks its test times into another target's
    train set, and with one target the split is the drawn one.

    Parameters
    ----------
    series:
        Simulator output.
    config:
        Window geometry and factor mask.
    split:
        Optional precomputed split of one target's windows; built with
        defaults otherwise.
    seed:
        Split RNG seed (only used when ``split`` is None).
    scalers:
        Train-fitted scalers; fitted on the whole series otherwise.
    targets:
        Target segments (default: the corridor's target).
    """

    def __init__(
        self,
        series: TrafficSeries,
        config: FeatureConfig | None = None,
        split: SplitIndices | None = None,
        seed: int = 0,
        scalers: FeatureScalers | None = None,
        *,
        targets: Iterable[int] | None = None,
    ):
        self.series = series
        self.config = config if config is not None else FeatureConfig()
        if scalers is None:
            scalers = fit_scalers(series)
        if targets is None:
            targets = [series.corridor.target_index]
        self.targets = tuple(int(t) for t in targets)
        self.features: WindowFeatures = build_features(series, self.config, scalers, self.targets)
        self._block = block = self.features.num_windows // len(self.targets)
        if split is None:
            split = split_windows(
                block,
                window_span=self.config.alpha + self.config.beta,
                rng=np.random.default_rng(seed),
            )
        offsets = np.arange(len(self.targets), dtype=np.int64) * block
        self.split = SplitIndices(
            train=_tile_indices(split.train, offsets),
            validation=_tile_indices(split.validation, offsets),
            test=_tile_indices(split.test, offsets),
        )
        self._flat_cache = self.features.flat()
        self._condition_cache = self.features.condition()

    # ------------------------------------------------------------------
    # Plain supervised access
    # ------------------------------------------------------------------
    def subset(self, name: str) -> np.ndarray:
        """Window indices of a named partition."""
        try:
            return getattr(self.split, name)
        except AttributeError:
            raise KeyError(f"unknown subset {name!r}; use train/validation/test") from None

    def batch(self, indices: np.ndarray) -> Batch:
        """Materialise a batch for the given window indices."""
        return Batch(
            images=self.features.images[indices],
            day_types=self.features.day_types[indices],
            flat=self._flat_cache[indices],
            targets=self.features.targets[indices],
            indices=np.asarray(indices),
        )

    # ------------------------------------------------------------------
    # Adversarial rollout access
    # ------------------------------------------------------------------
    def rollout_anchors(self, subset: str = "train") -> np.ndarray:
        """Anchors whose alpha-window history lies entirely in ``subset``.

        Anchor ``i`` requires windows ``i - alpha + 1 .. i``; we find them
        as positions >= alpha - 1 within consecutive index runs, then drop
        those whose windows would cross a target-block boundary.
        """
        alpha = self.config.alpha
        runs = consecutive_runs(self.subset(subset), min_length=alpha)
        anchors = [run[alpha - 1 :] for run in runs]
        if not anchors:
            return np.array([], dtype=np.int64)
        anchors = np.concatenate(anchors)
        return anchors[(anchors - alpha + 1) // self._block == anchors // self._block]

    def rollout_batch(self, anchors: np.ndarray) -> RolloutBatch:
        """Materialise the adversarial groups for the given anchors."""
        alpha = self.config.alpha
        anchors = np.asarray(anchors, dtype=np.int64)
        offsets = np.arange(-(alpha - 1), 1)
        group = (anchors[:, None] + offsets[None, :]).reshape(-1)
        if group.min() < 0:
            raise ValueError("anchor group extends before the first window")
        blocks = group.reshape(len(anchors), alpha) // self._block
        if np.any(blocks != (anchors // self._block)[:, None]):
            raise ValueError("anchor group crosses a target-block boundary")
        return RolloutBatch(
            group_images=self.features.images[group],
            group_day_types=self.features.day_types[group],
            group_flat=self._flat_cache[group],
            group_targets=self.features.targets[group],
            condition=self._condition_cache[anchors],
            anchor_targets=self.features.targets[anchors],
            anchors=anchors,
        )

    # ------------------------------------------------------------------
    # Metrics support
    # ------------------------------------------------------------------
    def kmh(self, scaled: np.ndarray) -> np.ndarray:
        """Convert scaled speeds back to km/h."""
        return self.features.scalers.speed.inverse_transform(scaled)

    def evaluation_arrays(self, subset: str = "test") -> tuple[np.ndarray, np.ndarray]:
        """(true km/h targets, last-input km/h) for regime-aware metrics."""
        indices = self.subset(subset)
        return self.features.targets_kmh[indices], self.features.last_input_kmh[indices]


def _tile_indices(indices: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Tile one block's indices across target blocks (sorted output)."""
    if len(indices) == 0:
        return np.array([], dtype=np.int64)
    return (indices[None, :].astype(np.int64) + offsets[:, None]).reshape(-1)


def iterate_batches(
    indices: np.ndarray,
    batch_size: int,
    rng: np.random.Generator | None = None,
    shuffle: bool = True,
    drop_last: bool = False,
) -> Iterator[np.ndarray]:
    """Yield index slices for mini-batch training."""
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    indices = np.asarray(indices)
    if shuffle:
        rng = rng if rng is not None else np.random.default_rng()
        indices = rng.permutation(indices)
    for start in range(0, len(indices), batch_size):
        chunk = indices[start : start + batch_size]
        if drop_last and len(chunk) < batch_size:
            return
        yield chunk
