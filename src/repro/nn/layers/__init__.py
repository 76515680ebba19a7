"""Neural network layers for the from-scratch substrate."""

from .activation import LeakyReLU, ReLU
from .container import ModuleList, Sequential
from .conv import Conv2d
from .linear import Linear
from .recurrent import LSTM, LSTMCell

__all__ = [
    "LeakyReLU",
    "ReLU",
    "ModuleList",
    "Sequential",
    "Conv2d",
    "Linear",
    "LSTM",
    "LSTMCell",
]
