"""Feedforward layers: named parameters, cached forward, accumulating backward.

One cache rule holds for every layer, ``Recurrence`` included: the cache
lives from a training-mode forward to the backward that reads it. An
eval-mode forward keeps none, every backward drops the cache it consumed,
and a backward with no cache to read raises ``LatentcastError`` naming the
layer. With ``need_dx=False`` a weighted layer's backward computes its
parameter gradients only and returns ``None``.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, LatentcastError, ShapeError
from . import functional as F
from .init import he_normal


class Module:
    """Anything owning named parameters with one gradient slot each."""

    def __init__(self, name: str):
        self.name = name
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def _register(self, key: str, value: np.ndarray) -> None:
        self.params[key] = value
        self.grads[key] = np.zeros_like(value)

    def zero_grads(self) -> None:
        for g in self.grads.values():
            g[...] = 0.0

    def init_params(self, rng: np.random.Generator, slope: float, dtype=np.float32) -> None:
        """Default: no parameters."""

    def modules(self) -> list["Module"]:
        """The modules a model registers for this one, in initialisation order."""
        return [self]

    def buffers(self) -> dict[str, np.ndarray]:
        """Non-trained state, keyed by the attribute that holds each array."""
        return {}


class Layer(Module):
    """Single-cache feedforward layer (forward immediately followed by
    backward, as in minibatch training)."""

    _cache = None  # set by a training-mode forward, dropped by its backward

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray, need_dx: bool = True) -> np.ndarray | None:
        raise NotImplementedError

    def _take_cache(self):
        """Take and clear the cache of the last training-mode forward."""
        cache, self._cache = self._cache, None
        if cache is None:
            raise LatentcastError(f"layer {self.name!r}: backward without a training forward")
        return cache


class ParamLayer(Layer):
    """Layer with one He-initialised weight ``w`` (fan-in ``fan_in``) and one
    zero bias ``b`` sized by the last weight axis. Subclasses supply the
    functional kernel pair as ``_forward``/``_backward``."""

    def __init__(self, name, w_shape, fan_in):
        super().__init__(name)
        self.w_shape, self.fan_in = tuple(w_shape), fan_in

    def init_params(self, rng, slope, dtype=np.float32):
        self._register("w", he_normal(self.w_shape, self.fan_in, slope, rng, dtype))
        self._register("b", np.zeros(self.w_shape[-1], dtype=dtype))

    def forward(self, x, train=True):
        try:
            y, cache = self._forward(x, self.params["w"], self.params["b"])
        except ShapeError as exc:
            raise ShapeError(f"layer {self.name!r}: {exc}") from None
        self._cache = cache if train else None
        return y

    def backward(self, dy, need_dx=True):
        dx, dw, db = self._backward(dy, self._take_cache(), self.params["w"],
                                    0 if need_dx else None)
        self.grads["w"] += dw
        self.grads["b"] += db
        return dx


class Conv2D(ParamLayer):
    def __init__(self, name, in_channels, out_channels, kernel=3, stride=2, padding=1):
        super().__init__(name, (kernel, kernel, in_channels, out_channels),
                         kernel * kernel * in_channels)
        self.stride, self.padding = stride, padding

    def _forward(self, x, w, b):
        return F.conv2d_forward(x, w, b, self.stride, self.padding)

    def _backward(self, dy, cache, w, dx_from):
        return F.conv2d_backward(dy, cache, w, dx_from)


class ConvTranspose2D(ParamLayer):
    def __init__(self, name, in_channels, out_channels, kernel=3, stride=2, padding=1,
                 output_padding=1):
        super().__init__(name, (kernel, kernel, in_channels, out_channels),
                         kernel * kernel * in_channels)
        self.stride, self.padding, self.output_padding = stride, padding, output_padding

    def _forward(self, x, w, b):
        return F.conv_transpose2d_forward(x, w, b, self.stride, self.padding,
                                          self.output_padding)

    def _backward(self, dy, cache, w, dx_from):
        return F.conv_transpose2d_backward(dy, cache, w, dx_from)


class Conv3D(ParamLayer):
    def __init__(self, name, in_channels, out_channels, kernel=(3, 3, 3), padding=(0, 1, 1)):
        kd, kh, kw = kernel
        super().__init__(name, (kd, kh, kw, in_channels, out_channels), kd * kh * kw * in_channels)
        self.padding = tuple(padding)

    def _forward(self, x, w, b):
        return F.conv3d_forward(x, w, b, self.padding)

    def _backward(self, dy, cache, w, dx_from):
        return F.conv3d_backward(dy, cache, w, dx_from)


class Dense(ParamLayer):
    def __init__(self, name, in_features, out_features):
        super().__init__(name, (in_features, out_features), in_features)

    def _forward(self, x, w, b):
        return F.dense_forward(x, w, b)

    def _backward(self, dy, cache, w, dx_from):
        return F.dense_backward(dy, cache, w, dx_from)


class BatchNorm(Layer):
    """Per-channel batch normalization with running statistics for eval."""

    def __init__(self, name, channels, momentum=0.9, eps=1e-5):
        super().__init__(name)
        self.channels, self.momentum, self.eps = channels, momentum, eps
        self.running_mean: np.ndarray | None = None
        self.running_var: np.ndarray | None = None

    def init_params(self, rng, slope, dtype=np.float32):
        self._register("gamma", np.ones(self.channels, dtype=dtype))
        self._register("beta", np.zeros(self.channels, dtype=dtype))
        self.running_mean = np.zeros(self.channels, dtype=dtype)
        self.running_var = np.ones(self.channels, dtype=dtype)

    def forward(self, x, train=True):
        if x.shape[-1] != self.channels:
            raise ShapeError(
                f"layer {self.name!r}: expected {self.channels} channels, got {x.shape[-1]}"
            )
        y, self._cache = F.batchnorm_forward(
            x, self.params["gamma"], self.params["beta"], self.running_mean, self.running_var,
            self.momentum, self.eps, train,
        )
        return y

    def backward(self, dy, need_dx=True):
        dx, dgamma, dbeta = F.batchnorm_backward(dy, self._take_cache(), self.params["gamma"])
        self.grads["gamma"] += dgamma
        self.grads["beta"] += dbeta
        return dx

    def buffers(self) -> dict[str, np.ndarray]:
        return {"running_mean": self.running_mean, "running_var": self.running_var}


class LeakyReLU(Layer):
    def __init__(self, name, slope=0.01):
        super().__init__(name)
        if not 0.0 <= slope <= 1.0:  # the max(x, slope*x) kernel needs it
            raise ConfigError(f"layer {name!r}: leaky slope must be in [0, 1], got {slope}")
        self.slope = slope

    def forward(self, x, train=True):
        y, cache = F.leaky_relu_forward(x, self.slope)
        self._cache = cache if train else None
        return y

    def backward(self, dy, need_dx=True):
        return F.leaky_relu_backward(dy, self._take_cache(), self.slope)


class Sigmoid(Layer):
    def forward(self, x, train=True):
        y = F.sigmoid(x)
        self._cache = y if train else None
        return y

    def backward(self, dy, need_dx=True):
        return F.sigmoid_backward(dy, self._take_cache())


class Reshape(Layer):
    """Reshapes each sample to ``target_shape``; the leading axis takes what
    is left, so a reshape can also fold a window axis into the batch
    ((b, k, ...) -> (b*k, ...)) or unfold it."""

    def __init__(self, name, target_shape):
        super().__init__(name)
        self.target_shape = tuple(target_shape)

    def forward(self, x, train=True):
        self._cache = x.shape if train else None  # the input shape
        return x.reshape(-1, *self.target_shape)

    def backward(self, dy, need_dx=True):
        return dy.reshape(self._take_cache())


class Flatten(Reshape):
    def __init__(self, name):
        super().__init__(name, ())

    def forward(self, x, train=True):
        self._cache = x.shape if train else None
        return x.reshape(x.shape[0], -1)
