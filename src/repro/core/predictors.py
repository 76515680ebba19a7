"""The four predictor bodies of APOTS: F, C, L and H (Section IV-B).

Every predictor consumes the same fixed-size inputs (the Q2 zero-filling
rule keeps sizes constant across ablations) and emits one scaled speed
per sample:

* **F** — fully connected over the flattened feature vector;
* **C** — CNN over the (roads + non-speed channels) x time image (Eq 6),
  with the day-type bits joined at the dense head;
* **L** — stacked LSTM over the per-timestep feature sequence;
* **H** — the hybrid: the CNN stack extracts spatio-temporal features
  column-by-column, then the LSTM reads the resulting sequence (LC-RNN
  style [24]).
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..data.features import FeatureConfig
from .config import ModelSpec, table1_spec

__all__ = ["Predictor", "FCPredictor", "CNNPredictor", "LSTMPredictor", "HybridPredictor", "build_predictor"]


class Predictor(nn.Module):
    """Common interface: arrays in, scaled speed predictions out.

    Subclasses implement :meth:`forward` over pre-built Tensors; the
    :meth:`predict_arrays` helper wraps plain numpy arrays, and
    :meth:`predict` runs batched grad-free inference.
    """

    kind: str = "?"

    def __init__(self, features: FeatureConfig):
        super().__init__()
        self.features = features

    def forward(self, images: nn.Tensor, day_types: nn.Tensor, flat: nn.Tensor) -> nn.Tensor:
        raise NotImplementedError

    def predict_arrays(
        self, images: np.ndarray, day_types: np.ndarray, flat: np.ndarray
    ) -> nn.Tensor:
        """Forward over raw arrays (used inside training loops)."""
        return self.forward(nn.Tensor(images), nn.Tensor(day_types), nn.Tensor(flat))

    def predict(
        self,
        images: np.ndarray,
        day_types: np.ndarray,
        flat: np.ndarray,
        batch_size: int = 1024,
    ) -> np.ndarray:
        """Grad-free batched inference returning a (N,) numpy array."""
        outputs = []
        with nn.no_grad():
            for start in range(0, len(flat), batch_size):
                sl = slice(start, start + batch_size)
                outputs.append(self.predict_arrays(images[sl], day_types[sl], flat[sl]).data)
        return np.concatenate(outputs) if outputs else np.array([])


def _fc_stack(dims: list[int], rng: np.random.Generator) -> nn.Sequential:
    """Build Linear+ReLU blocks ending with a Linear to the last dim."""
    stack = nn.Sequential()
    for i in range(len(dims) - 2):
        stack.append(nn.Linear(dims[i], dims[i + 1], rng=rng))
        stack.append(nn.ReLU())
    stack.append(nn.Linear(dims[-2], dims[-1], rng=rng))
    return stack


class FCPredictor(Predictor):
    """F: the paper's basic fully-connected model (4 hidden layers)."""

    kind = "F"

    def __init__(self, features: FeatureConfig, spec: ModelSpec | None = None, rng=None):
        super().__init__(features)
        spec = spec if spec is not None else table1_spec("F")
        rng = rng if rng is not None else np.random.default_rng()
        dims = [features.flat_dim] + list(spec.fc_widths) + [1]
        self.net = _fc_stack(dims, rng)

    def forward(self, images: nn.Tensor, day_types: nn.Tensor, flat: nn.Tensor) -> nn.Tensor:
        return self.net(flat).reshape(-1)


class _ConvStack(nn.Module):
    """The Table I CNN trunk: shape-preserving conv layers with ReLU."""

    def __init__(self, channels: list[int], kernels: list[tuple[int, int]], rng):
        super().__init__()
        layers = nn.Sequential()
        in_channels = 1
        for out_channels, kernel in zip(channels, kernels):
            padding = (kernel[0] // 2, kernel[1] // 2)  # preserve H x W
            layers.append(nn.Conv2d(in_channels, out_channels, kernel, padding=padding, rng=rng))
            layers.append(nn.ReLU())
            in_channels = out_channels
        self.layers = layers
        self.out_channels = in_channels

    def forward(self, x: nn.Tensor) -> nn.Tensor:
        return self.layers(x)


class CNNPredictor(Predictor):
    """C: convolutional model over the feature image [47]."""

    kind = "C"

    def __init__(self, features: FeatureConfig, spec: ModelSpec | None = None, rng=None):
        super().__init__(features)
        spec = spec if spec is not None else table1_spec("C")
        rng = rng if rng is not None else np.random.default_rng()
        self.trunk = _ConvStack(spec.cnn_channels, spec.cnn_kernels, rng)
        conv_dim = self.trunk.out_channels * features.image_rows * features.alpha
        self.head = _fc_stack([conv_dim + 4, max(32, conv_dim // 16), 1], rng)

    def forward(self, images: nn.Tensor, day_types: nn.Tensor, flat: nn.Tensor) -> nn.Tensor:
        batch = images.shape[0]
        x = images.reshape(batch, 1, *images.shape[1:])
        features = self.trunk(x).reshape(batch, -1)
        return self.head(nn.ops.concat([features, day_types], axis=1)).reshape(-1)


class LSTMPredictor(Predictor):
    """L: stacked LSTM over the per-timestep feature sequence [9].

    The dense head reads the final hidden state, the day-type bits, and
    the last observed target-road speed (a skip connection): the
    recurrence then only has to model the *deviation* from persistence,
    which is what makes an LSTM competitive at small training budgets.
    """

    kind = "L"

    def __init__(self, features: FeatureConfig, spec: ModelSpec | None = None, rng=None):
        super().__init__(features)
        spec = spec if spec is not None else table1_spec("L")
        rng = rng if rng is not None else np.random.default_rng()
        self.lstm = nn.LSTM(features.image_rows, list(spec.lstm_widths), rng=rng)
        self.head = nn.Linear(spec.lstm_widths[-1] + 4 + 1, 1, rng=rng)

    def forward(self, images: nn.Tensor, day_types: nn.Tensor, flat: nn.Tensor) -> nn.Tensor:
        sequence = images.transpose(0, 2, 1)  # (B, alpha, rows)
        outputs, _ = self.lstm(sequence)
        last = outputs[:, -1, :]
        last_speed = images[:, self.features.m, -1].reshape(-1, 1)
        return self.head(nn.ops.concat([last, day_types, last_speed], axis=1)).reshape(-1)


class HybridPredictor(Predictor):
    """H: CNN feature extraction followed by LSTM sequence modelling [24].

    The conv trunk preserves the time axis; per timestep the (channel x
    road) activations are flattened, so the LSTM reads an alpha-long
    sequence of spatial feature vectors — spatio-temporal then
    sequential, as Section IV-B argues.  Flattening (rather than pooling
    over roads) keeps each road's identity visible to the recurrence.
    """

    kind = "H"

    def __init__(self, features: FeatureConfig, spec: ModelSpec | None = None, rng=None):
        super().__init__(features)
        spec = spec if spec is not None else table1_spec("H")
        rng = rng if rng is not None else np.random.default_rng()
        self.trunk = _ConvStack(spec.cnn_channels, spec.cnn_kernels, rng)
        per_step_dim = self.trunk.out_channels * features.image_rows
        self.lstm = nn.LSTM(per_step_dim, list(spec.lstm_widths), rng=rng)
        self.head = nn.Linear(spec.lstm_widths[-1] + 4 + 1, 1, rng=rng)

    def forward(self, images: nn.Tensor, day_types: nn.Tensor, flat: nn.Tensor) -> nn.Tensor:
        batch = images.shape[0]
        x = images.reshape(batch, 1, *images.shape[1:])
        conv = self.trunk(x)  # (B, C, rows, alpha)
        per_step = conv.reshape(batch, -1, conv.shape[3])  # (B, C*rows, alpha)
        sequence = per_step.transpose(0, 2, 1)  # (B, alpha, C*rows)
        outputs, _ = self.lstm(sequence)
        last = outputs[:, -1, :]
        # Persistence skip (see LSTMPredictor): predict the deviation.
        last_speed = images[:, self.features.m, -1].reshape(-1, 1)
        return self.head(nn.ops.concat([last, day_types, last_speed], axis=1)).reshape(-1)


_REGISTRY = {"F": FCPredictor, "L": LSTMPredictor, "C": CNNPredictor, "H": HybridPredictor}


def build_predictor(
    kind: str,
    features: FeatureConfig,
    spec: ModelSpec | None = None,
    rng: np.random.Generator | None = None,
) -> Predictor:
    """Instantiate a predictor by its paper name (F / L / C / H)."""
    try:
        cls = _REGISTRY[kind]
    except KeyError:
        valid = sorted(_REGISTRY)
        raise ValueError(f"unknown predictor kind {kind!r}; expected one of {valid}") from None
    return cls(features, spec=spec if spec is not None else table1_spec(kind), rng=rng)
