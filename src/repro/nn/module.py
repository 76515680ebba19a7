"""Module / Parameter abstractions and state-dict serialisation.

Mirrors the familiar torch.nn.Module contract at the scale this project
needs: automatic parameter registration via ``__setattr__``, recursive
``parameters()`` / ``named_parameters()`` and ``state_dict``
round-tripping to ``.npz`` files.  There is no train/eval mode: no layer
here behaves differently at inference (no dropout, no batch statistics).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

import numpy as np

from .tensor import Tensor

__all__ = ["Parameter", "Module", "save_state", "load_state"]


class Parameter(Tensor):
    """A Tensor flagged as trainable (always requires grad)."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)
        self.requires_grad = True  # immune to no_grad() at construction


class Module:
    """Base class for all neural network components."""

    def __init__(self):
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_module(self, name: str, module: "Module") -> None:
        """Register a child module under ``name`` (for dynamic children)."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def parameters(self) -> list[Parameter]:
        """Return all trainable parameters of this module and children."""
        return [p for _, p in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield (dotted-name, parameter) pairs recursively."""
        for name, param in self._parameters.items():
            yield prefix + name, param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix + name + ".")

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # Gradients
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Return a copy of every parameter keyed by dotted name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter values in place; shapes must match exactly."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, values in state.items():
            param = own[name]
            values = np.asarray(values, dtype=param.data.dtype)
            if values.shape != param.data.shape:
                raise ValueError(f"shape mismatch for {name}: {values.shape} vs {param.data.shape}")
            param.data[...] = values


def save_state(module: Module, path: str | Path) -> None:
    """Serialise a module's state dict to a ``.npz`` file."""
    np.savez(Path(path), **module.state_dict())


def load_state(module: Module, path: str | Path) -> None:
    """Load a state dict previously written by :func:`save_state`."""
    with np.load(Path(path)) as archive:
        module.load_state_dict({k: archive[k] for k in archive.files})
