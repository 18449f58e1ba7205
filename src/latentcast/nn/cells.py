"""Recurrent cells with per-timestep caches, and the ``Recurrence`` layer that
unrolls a stack of them for backpropagation through time.

A cell is a rule (Elman, LSTM) over a transform of (x, h) to the
pre-activations ``z``: ``x Wx + h Wh + b``, or a convolution for ``ConvCell``.
Each rule is written once for both transforms; the GRU keeps its own step, as
its reset gate scales only the hidden part of ``z``. ``step`` returns
(output, new_state, cache); ``backstep`` consumes one cache plus the incoming
output/state gradients and returns (dx, dstate), adding parameter gradients
into the cell's accumulators; with ``need_dx=False`` it skips the input
gradient and returns ``None`` for dx. States reset to zeros at the start of
every window. ``Recurrence`` follows the layers' cache rule: step caches of a
training-mode forward only, each released as its backward reads it.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .init import he_normal
from .layers import Layer, Module


class Cell(Module):
    """Recurrent cell with ``gates`` pre-activation blocks and ``state_count``
    state arrays. The parameters and transform here are those of the vector
    cells, ``z = x Wx + h Wh + b``; ``ConvCell`` replaces them."""

    gates = 1
    state_count = 1

    def __init__(self, name, input_size, hidden_size):
        super().__init__(name)
        self.input_size, self.hidden_size = input_size, hidden_size

    def init_params(self, rng, slope, dtype=np.float32):
        m, n, g = self.input_size, self.hidden_size, self.gates
        self._register("wx", he_normal((m, g * n), m, slope, rng, dtype))
        self._register("wh", he_normal((n, g * n), n, slope, rng, dtype))
        self._register("b", np.zeros(g * n, dtype=dtype))

    def init_state(self, x: np.ndarray) -> tuple[np.ndarray, ...]:
        """Zero state for a window whose first step input is ``x``
        (batch, ..., features); states are never updated in place."""
        z = np.zeros((*x.shape[:-1], self.hidden_size), dtype=x.dtype)
        return (z,) * self.state_count

    def step(self, x, state):
        raise NotImplementedError

    def backstep(self, cache, dh, dstate, need_dx=True):
        raise NotImplementedError

    def _transform(self, x, h):
        """(z, cache)"""
        return x @ self.params["wx"] + h @ self.params["wh"] + self.params["b"], (x, h)

    def _transform_backward(self, dz, cache, need_dx):
        """(dx, dh_prev) through ``_transform``; dx is None without ``need_dx``."""
        x, h = cache
        return self._affine_backward(x, dz, h, dz, need_dx)

    def _affine_backward(self, x, dzx, h, dzh, need_dx):
        """Gradients through ``x Wx + h Wh + b`` given the pre-activation
        gradient of the input part ``dzx`` and of the hidden part ``dzh``."""
        self.grads["wx"] += x.T @ dzx
        self.grads["wh"] += h.T @ dzh
        self.grads["b"] += dzx.sum(axis=0)
        return (dzx @ self.params["wx"].T if need_dx else None), dzh @ self.params["wh"].T


class ConvCell(Cell):
    """Cell whose transform is one 3x3 convolution over the
    channel-concatenated (input, hidden) maps; the hidden state is shaped
    like the input map with ``hidden_size`` channels."""

    def init_params(self, rng, slope, dtype=np.float32):
        ci, ch, g = self.input_size, self.hidden_size, self.gates
        self._register("w", he_normal((3, 3, ci + ch, g * ch), 9 * (ci + ch), slope, rng, dtype))
        self._register("b", np.zeros(g * ch, dtype=dtype))

    def _transform(self, x, h):
        return F.conv2d_forward(
            np.concatenate([x, h], axis=3), self.params["w"], self.params["b"], stride=1, padding=1
        )

    def _transform_backward(self, dz, cache, need_dx):
        m = self.input_size
        dxc, dw, db = F.conv2d_backward(dz, cache, self.params["w"], 0 if need_dx else m)
        self.grads["w"] += dw
        self.grads["b"] += db
        return (dxc[..., :m], dxc[..., m:]) if need_dx else (None, dxc)


# The rules are mixins ahead of ``Cell`` or ``ConvCell``, so no cell class
# inherits another cell's step: a wrapper set on one class counts it alone.
class _ElmanRule:
    """h' = tanh(z)"""

    def step(self, x, state):
        (h,) = state
        z, tcache = self._transform(x, h)
        h_new = np.tanh(z)
        return h_new, (h_new,), (tcache, h_new)

    def backstep(self, cache, dh, dstate, need_dx=True):
        tcache, h_new = cache
        if dstate is not None:
            dh = dh + dstate[0]
        dx, dh_prev = self._transform_backward(F.tanh_backward(dh, h_new), tcache, need_dx)
        return dx, (dh_prev,)


class _LSTMRule:
    """LSTM update from pre-activations packed [input, forget, candidate,
    output] along the last axis."""

    gates = 4
    state_count = 2

    def step(self, x, state):
        h, c = state
        z, tcache = self._transform(x, h)
        n = self.hidden_size
        i = F.sigmoid(z[..., :n])
        f = F.sigmoid(z[..., n : 2 * n])
        g = np.tanh(z[..., 2 * n : 3 * n])
        o = F.sigmoid(z[..., 3 * n :])
        c_new = f * c + i * g
        tc = np.tanh(c_new)
        h_new = o * tc
        return h_new, (h_new, c_new), (tcache, c, i, f, g, o, tc)

    def backstep(self, cache, dh, dstate, need_dx=True):
        tcache, c_prev, i, f, g, o, tc = cache
        if dstate is not None:
            dh = dh + dstate[0]
        do = dh * tc
        dc = F.tanh_backward(dh * o, tc)
        if dstate is not None:
            dc = dc + dstate[1]
        dz = np.concatenate(
            [
                F.sigmoid_backward(dc * g, i),
                F.sigmoid_backward(dc * c_prev, f),
                F.tanh_backward(dc * i, g),
                F.sigmoid_backward(do, o),
            ],
            axis=-1,
        )
        dx, dh_prev = self._transform_backward(dz, tcache, need_dx)
        return dx, (dh_prev, dc * f)


class ElmanCell(_ElmanRule, Cell):
    """h' = tanh(x Wx + h Wh + b)"""


class LSTMCell(_LSTMRule, Cell):
    """Vector LSTM."""


class ConvLSTMCell(_LSTMRule, ConvCell):
    """LSTM with convolutional transforms, gates packed as in ``LSTMCell``."""


class ConvElmanCell(_ElmanRule, ConvCell):
    """Elman recurrence with convolutional transforms (tanh), used by the
    convolutional-RNN predictor."""


class GRUCell(Cell):
    """Gates packed as [reset, update, candidate]; single bias set, reset gate
    applied to the hidden contribution of the candidate (parameter count
    3(nm + n^2 + n))."""

    gates = 3

    def step(self, x, state):
        (h,) = state
        n = self.hidden_size
        xa = x @ self.params["wx"] + self.params["b"]
        ha = h @ self.params["wh"]
        r = F.sigmoid(xa[:, :n] + ha[:, :n])
        u = F.sigmoid(xa[:, n : 2 * n] + ha[:, n : 2 * n])
        cand = np.tanh(xa[:, 2 * n :] + r * ha[:, 2 * n :])
        h_new = (1.0 - u) * cand + u * h
        return h_new, (h_new,), (x, h, ha, r, u, cand)

    def backstep(self, cache, dh, dstate, need_dx=True):
        x, h_prev, ha, r, u, cand = cache
        n = self.hidden_size
        if dstate is not None:
            dh = dh + dstate[0]
        du = dh * (h_prev - cand)
        dcand = dh * (1.0 - u)
        dzc = F.tanh_backward(dcand, cand)
        dr = dzc * ha[:, 2 * n :]
        dzr = F.sigmoid_backward(dr, r)
        dzu = F.sigmoid_backward(du, u)
        dxa = np.concatenate([dzr, dzu, dzc], axis=1)
        dha = np.concatenate([dzr, dzu, dzc * r], axis=1)
        dx, dh_prev = self._affine_backward(x, dxa, h_prev, dha, need_dx)
        return dx, (dh_prev + dh * u,)


class Recurrence(Layer):
    """Backpropagation through time over a (b, k, ...) window: steps the
    stacked cells frame by frame from zero states and returns the top cell's
    last hidden state; ``backward`` returns the gradient of the window. The
    cells own the parameters, so a model registers them in its place."""

    def __init__(self, name, cells: list[Cell]):
        super().__init__(name)
        self.cells = cells

    def modules(self):
        return list(self.cells)

    def forward(self, x, train=True):
        states = [cell.init_state(x[:, 0]) for cell in self.cells]
        self._cache = [[] for _ in self.cells] if train else None  # step caches per cell
        for t in range(x.shape[1]):
            h = x[:, t]
            for layer, cell in enumerate(self.cells):
                h, states[layer], cache = cell.step(h, states[layer])
                if train:
                    self._cache[layer].append(cache)
        return h

    def backward(self, dy, need_dx=True):
        caches = self._take_cache()
        k = len(caches[0])
        zero = np.zeros_like(dy)
        dstates = [None] * len(self.cells)
        dxs = []
        for t in reversed(range(k)):
            dh = dy if t == k - 1 else zero
            for layer in reversed(range(len(self.cells))):
                dh, dstates[layer] = self.cells[layer].backstep(
                    caches[layer].pop(), dh, dstates[layer], need_dx or layer > 0
                )
            dxs.append(dh)
        return np.stack(dxs[::-1], axis=1) if need_dx else None
