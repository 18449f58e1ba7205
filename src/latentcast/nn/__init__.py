"""Minimal differentiable-network core: layers, recurrent cells, losses,
optimizers, He initialization, checkpointing and gradient checking."""

from . import functional
from .cells import Cell, ConvElmanCell, ConvLSTMCell, ElmanCell, GRUCell, LSTMCell, Recurrence
from .gradcheck import check_model_gradients
from .init import he_normal
from .layers import (
    BatchNorm,
    Conv2D,
    Conv3D,
    ConvTranspose2D,
    Dense,
    Flatten,
    Layer,
    LeakyReLU,
    Module,
    Reshape,
    Sigmoid,
)
from .losses import LossKind, loss, loss_with_grad
from .network import Model, Sequential, load_checkpoint, save_checkpoint
from .optim import Adam, Optimizer, OptimizerKind, RMSProp, make_optimizer

__all__ = [
    "Adam",
    "BatchNorm",
    "Cell",
    "Conv2D",
    "Conv3D",
    "ConvElmanCell",
    "ConvLSTMCell",
    "ConvTranspose2D",
    "Dense",
    "ElmanCell",
    "Flatten",
    "GRUCell",
    "LSTMCell",
    "Layer",
    "LeakyReLU",
    "LossKind",
    "Model",
    "Module",
    "Optimizer",
    "OptimizerKind",
    "RMSProp",
    "Recurrence",
    "Reshape",
    "Sequential",
    "Sigmoid",
    "check_model_gradients",
    "functional",
    "he_normal",
    "load_checkpoint",
    "loss",
    "loss_with_grad",
    "make_optimizer",
    "save_checkpoint",
]
