"""``repro.nn`` — a from-scratch deep-learning substrate on numpy.

The APOTS paper assumes a mainstream deep-learning framework; none is
available offline, so this subpackage implements exactly the pieces the
paper's models need: a reverse-mode autograd Tensor, the dense,
convolutional and LSTM layers of the four predictor bodies, Adam, the
MSE and BCE-with-logits losses, initialisation, serialisation and
finite-difference gradient checking.
"""

from . import init, ops
from .gradcheck import check_gradients, numerical_gradient
from .layers import (
    LSTM,
    Conv2d,
    LeakyReLU,
    Linear,
    LSTMCell,
    ModuleList,
    ReLU,
    Sequential,
)
from .losses import BCEWithLogitsLoss, MSELoss
from .module import Module, Parameter, load_state, save_state
from .optim import Adam, clip_grad_norm
from .pool import reuse_arrays
from .tensor import Tensor, as_tensor, is_grad_enabled, no_grad

__all__ = [
    "init",
    "ops",
    "check_gradients",
    "numerical_gradient",
    "LSTM",
    "Conv2d",
    "LeakyReLU",
    "Linear",
    "LSTMCell",
    "ModuleList",
    "ReLU",
    "Sequential",
    "BCEWithLogitsLoss",
    "MSELoss",
    "Module",
    "Parameter",
    "load_state",
    "save_state",
    "Adam",
    "clip_grad_norm",
    "reuse_arrays",
    "Tensor",
    "as_tensor",
    "is_grad_enabled",
    "no_grad",
]
