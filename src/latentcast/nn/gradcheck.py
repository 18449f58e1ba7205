"""Central finite-difference gradient checking.

Models under check must be built in float64 (the shadow path); the check
perturbs every parameter element by +/- eps and compares the analytic
gradients against (f(x+eps) - f(x-eps)) / (2 eps).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .losses import LossKind, loss, loss_with_grad
from .network import Model


def finite_difference(
    f: Callable[[], float], arrays: dict[str, np.ndarray], eps: float = 1e-4
) -> dict[str, np.ndarray]:
    """Numeric gradient of scalar ``f`` with respect to every element of the
    given arrays (perturbed in place and restored)."""
    grads = {}
    for name, arr in arrays.items():
        flat = arr.reshape(-1)
        g = np.zeros(flat.size, dtype=np.float64)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = f()
            flat[i] = orig - eps
            fm = f()
            flat[i] = orig
            g[i] = (fp - fm) / (2.0 * eps)
        grads[name] = g.reshape(arr.shape)
    return grads


# The floor keeps mathematically-zero gradients (e.g. a conv bias feeding a
# batch norm) from turning float noise into spurious relative error.
_ZERO_FLOOR = 1e-6


def max_relative_error(analytic: dict[str, np.ndarray], numeric: dict[str, np.ndarray]) -> float:
    """Worst-case |a - n| / max(|a| + |n|, _ZERO_FLOOR)."""
    worst = 0.0
    for name, a in analytic.items():
        n = numeric[name]
        err = np.abs(a - n) / np.maximum(np.abs(a) + np.abs(n), _ZERO_FLOOR)
        worst = max(worst, float(err.max()))
    return worst


def check_model_gradients(
    model: Model,
    x: np.ndarray,
    target: np.ndarray,
    loss_kind: LossKind,
    eps: float = 1e-4,
) -> float:
    """Max relative error between analytic and central-difference gradients
    for every parameter and the input of a float64 model."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    model.zero_grads()
    pred = model.forward(x, train=True)
    _, dpred = loss_with_grad(loss_kind, pred, target)
    dx = model.backward(dpred)
    analytic = {k: v.copy() for k, v in {**model.grads(), "__input__": dx}.items()}
    arrays = {**model.params(), "__input__": x}

    def objective() -> float:
        return loss(loss_kind, model.forward(x, train=True), target)

    numeric = finite_difference(objective, arrays, eps)
    return max_relative_error(analytic, numeric)
