"""Attention-based predictor — an extension beyond the paper's four bodies.

Section VI plans comparisons against newer models; attention networks
are the obvious family ([19]–[25] cite several).  This predictor applies
single-head scaled dot-product self-attention over the alpha timesteps
of the feature sequence, pools the attended sequence, and regresses the
next speed.  It plugs into everything the other predictors do: plain
training, the APOTS adversarial game, evaluation, checkpoints.
"""

from __future__ import annotations

import math

import numpy as np

from .. import nn
from ..data.features import FeatureConfig
from .config import ModelSpec
from .predictors import Predictor

__all__ = ["AttentionPredictor", "SelfAttention"]


class SelfAttention(nn.Module):
    """Single-head scaled dot-product self-attention over (B, T, D)."""

    def __init__(self, input_dim: int, attention_dim: int, rng: np.random.Generator):
        super().__init__()
        self.attention_dim = attention_dim
        self.query = nn.Linear(input_dim, attention_dim, rng=rng)
        self.key = nn.Linear(input_dim, attention_dim, rng=rng)
        self.value = nn.Linear(input_dim, attention_dim, rng=rng)

    def forward(self, x: nn.Tensor) -> nn.Tensor:
        """Return the attended sequence, shape (B, T, attention_dim)."""
        q = self.query(x)  # (B, T, A)
        k = self.key(x)
        v = self.value(x)
        scores = (q @ k.transpose(0, 2, 1)) * (1.0 / math.sqrt(self.attention_dim))
        weights = nn.ops.softmax(scores, axis=-1)  # (B, T, T)
        return weights @ v

    def attention_weights(self, x: np.ndarray) -> np.ndarray:
        """Grad-free attention map for interpretability, (B, T, T)."""
        with nn.no_grad():
            t = nn.Tensor(x)
            q = self.query(t)
            k = self.key(t)
            scores = (q @ k.transpose(0, 2, 1)) * (1.0 / math.sqrt(self.attention_dim))
            return nn.ops.softmax(scores, axis=-1).data


class AttentionPredictor(Predictor):
    """A: attention over time, mean-pooled, with the persistence skip.

    Registered as predictor kind "A" (see ``repro.core.build_predictor``);
    not part of the paper's grid, so the Section V experiments ignore it
    unless explicitly requested.
    """

    kind = "A"

    def __init__(self, features: FeatureConfig, spec: ModelSpec | None = None, rng=None):
        super().__init__(features)
        rng = rng if rng is not None else np.random.default_rng()
        width = spec.fc_widths[-1] if spec is not None else 64
        self.embed = nn.Linear(features.image_rows, width, rng=rng)
        self.attention = SelfAttention(width, width, rng=rng)
        self.head = nn.Linear(width + 4 + 1, 1, rng=rng)

    def forward(self, images: nn.Tensor, day_types: nn.Tensor, flat: nn.Tensor) -> nn.Tensor:
        sequence = images.transpose(0, 2, 1)  # (B, alpha, rows)
        embedded = self.embed(sequence).tanh()
        attended = self.attention(embedded)  # (B, alpha, width)
        pooled = attended.mean(axis=1)
        last_speed = images[:, self.features.m, -1].reshape(-1, 1)
        return self.head(nn.ops.concat([pooled, day_types, last_speed], axis=1)).reshape(-1)
