"""Adam and RMSProp parameter updates over named parameter stores."""

from __future__ import annotations

from enum import Enum

import numpy as np

from ..errors import NonFiniteGradientError, _check_rate


class OptimizerKind(str, Enum):
    ADAM = "adam"
    RMSPROP = "rmsprop"


class Optimizer:
    """Keeps one state slot set per parameter name; ``step`` mutates the
    parameter arrays in place.

    Updates run in place through two scratch arrays shared by all
    parameters. They hold no state between parameters, so they are not in
    ``state``. Neither is saved: the state lives for one training run, and
    a checkpoint holds the model alone."""

    def __init__(self, learning_rate: float):
        _check_rate("learning rate", learning_rate)
        self.learning_rate = learning_rate
        self.t = 0
        self.state: dict[str, dict[str, np.ndarray]] = {}
        self._scratch = np.empty((2, 0))

    def _slots(self, name: str, like: np.ndarray, keys: tuple[str, ...]) -> dict[str, np.ndarray]:
        if name not in self.state:
            self.state[name] = {k: np.zeros_like(like) for k in keys}
        return self.state[name]

    def _scratch_pair(self, like: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Two scratch arrays shaped and typed like ``like``; grown, never
        shrunk, so after the first step they are not reallocated."""
        n = like.size
        if self._scratch.dtype != like.dtype or self._scratch.shape[1] < n:
            self._scratch = np.empty((2, max(n, self._scratch.shape[1])), dtype=like.dtype)
        a, b = self._scratch[:, :n]
        return a.reshape(like.shape), b.reshape(like.shape)

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        for name, g in grads.items():
            if not np.isfinite(g).all():
                raise NonFiniteGradientError(f"non-finite gradient for parameter {name!r}")
            self._update(name, params[name], g)

    def _update(self, name: str, p: np.ndarray, g: np.ndarray) -> None:
        raise NotImplementedError


class Adam(Optimizer):
    def __init__(self, learning_rate: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        super().__init__(learning_rate)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps

    def _update(self, name, p, g):
        s = self._slots(name, p, ("m", "v"))
        m, v = s["m"], s["v"]
        a, b = self._scratch_pair(p)
        # same operations in the same order as
        #   m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
        #   p -= lr*m_hat / (sqrt(v_hat) + eps)
        # so the update is bitwise that of the textbook form
        np.multiply(g, 1.0 - self.beta1, out=a)
        m *= self.beta1
        m += a
        np.multiply(g, 1.0 - self.beta2, out=a)
        a *= g
        v *= self.beta2
        v += a
        np.divide(m, 1.0 - self.beta1**self.t, out=a)
        a *= self.learning_rate
        np.divide(v, 1.0 - self.beta2**self.t, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        a /= b
        p -= a


class RMSProp(Optimizer):
    def __init__(self, learning_rate: float, alpha: float = 0.99, eps: float = 1e-8):
        super().__init__(learning_rate)
        self.alpha, self.eps = alpha, eps

    def _update(self, name, p, g):
        s = self._slots(name, p, ("sq",))["sq"]
        a, b = self._scratch_pair(p)
        # s = alpha*s + ((1-alpha)*g)*g;  p -= lr*g / (sqrt(s) + eps)
        np.multiply(g, 1.0 - self.alpha, out=a)
        a *= g
        s *= self.alpha
        s += a
        np.multiply(g, self.learning_rate, out=a)
        np.sqrt(s, out=b)
        b += self.eps
        a /= b
        p -= a


def make_optimizer(kind: OptimizerKind | str, learning_rate: float) -> Optimizer:
    if OptimizerKind(kind) is OptimizerKind.ADAM:
        return Adam(learning_rate)
    return RMSProp(learning_rate)
