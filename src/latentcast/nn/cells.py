"""Recurrent cells with per-timestep caches, and the ``Recurrence`` layer that
unrolls a stack of them for backpropagation through time.

``step`` returns (output, new_state, cache); ``backstep`` consumes one cache
plus the incoming output/state gradients and returns (dx, dstate), adding
parameter gradients into the cell's accumulators; with ``need_dx=False`` it
skips the input gradient and returns ``None`` for dx. States reset to zeros
at the start of every window. ``Recurrence`` keeps the step caches of a
training-mode forward only, and its backward releases each one as it is read.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from . import functional as F
from .init import he_normal
from .layers import Layer, Module


class Cell(Module):
    """Recurrent cell with ``gates`` pre-activation blocks and ``state_count``
    state arrays. The parameters here are those of the vector cells, whose
    blocks are ``x Wx + h Wh + b``; ``ConvCell`` replaces them."""

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

    def _affine_backward(self, x, dzx, h, dzh, need_dx):
        """Gradients through ``x Wx + h Wh + b`` given the pre-activation
        gradient of the input part ``dzx`` and of the hidden part ``dzh``."""
        self.grads["wx"] += x.T @ dzx
        self.grads["wh"] += h.T @ dzh
        self.grads["b"] += dzx.sum(axis=0)
        return (dzx @ self.params["wx"].T if need_dx else None), dzh @ self.params["wh"].T


def _lstm_gates(z, c, n):
    """LSTM update from pre-activations packed [input, forget, candidate,
    output] along the last axis."""
    i = F.sigmoid(z[..., :n])
    f = F.sigmoid(z[..., n : 2 * n])
    g = np.tanh(z[..., 2 * n : 3 * n])
    o = F.sigmoid(z[..., 3 * n :])
    c_new = f * c + i * g
    tc = np.tanh(c_new)
    return o * tc, c_new, (c, i, f, g, o, tc)


def _lstm_gates_backward(gate_cache, dh, dstate):
    """(d pre-activations, d previous cell state) of ``_lstm_gates``."""
    c_prev, i, f, g, o, tc = gate_cache
    dc_next = None
    if dstate is not None:
        dh = dh + dstate[0]
        dc_next = dstate[1]
    do = dh * tc
    dc = F.tanh_backward(dh * o, tc)
    if dc_next is not None:
        dc = dc + dc_next
    dz = np.concatenate(
        [
            F.sigmoid_backward(dc * g, i),
            F.sigmoid_backward(dc * c_prev, f),
            F.tanh_backward(dc * i, g),
            F.sigmoid_backward(do, o),
        ],
        axis=-1,
    )
    return dz, dc * f


class ElmanCell(Cell):
    """h' = tanh(x Wx + h Wh + b)"""

    def step(self, x, state):
        (h,) = state
        h_new = np.tanh(x @ self.params["wx"] + h @ self.params["wh"] + self.params["b"])
        return h_new, (h_new,), (x, h, h_new)

    def backstep(self, cache, dh, dstate, need_dx=True):
        x, h_prev, h_new = cache
        if dstate is not None:
            dh = dh + dstate[0]
        da = F.tanh_backward(dh, h_new)
        dx, dh_prev = self._affine_backward(x, da, h_prev, da, need_dx)
        return dx, (dh_prev,)


class LSTMCell(Cell):
    """Gates packed as [input, forget, candidate, output]."""

    gates = 4
    state_count = 2

    def step(self, x, state):
        h, c = state
        z = x @ self.params["wx"] + h @ self.params["wh"] + self.params["b"]
        h_new, c_new, gate_cache = _lstm_gates(z, c, self.hidden_size)
        return h_new, (h_new, c_new), (x, h, gate_cache)

    def backstep(self, cache, dh, dstate, need_dx=True):
        x, h_prev, gate_cache = cache
        dz, dc_prev = _lstm_gates_backward(gate_cache, dh, dstate)
        dx, dh_prev = self._affine_backward(x, dz, h_prev, dz, need_dx)
        return dx, (dh_prev, dc_prev)


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


class ConvCell(Cell):
    """Cell whose input-to-state and state-to-state transforms are a single
    odd-sized convolution over the channel-concatenated (input, hidden) maps;
    the hidden state is shaped like the input map with ``hidden_channels``."""

    def __init__(self, name, in_channels, hidden_channels, kernel=3):
        if kernel % 2 != 1:
            raise ConfigError(f"{type(self).__name__} kernel must be odd so the state keeps "
                              "its shape")
        super().__init__(name, in_channels, hidden_channels)
        self.kernel = kernel

    def init_params(self, rng, slope, dtype=np.float32):
        k, ci, ch, g = self.kernel, self.input_size, self.hidden_size, self.gates
        self._register("w", he_normal((k, k, ci + ch, g * ch), k * k * (ci + ch), slope, rng, dtype))
        self._register("b", np.zeros(g * ch, dtype=dtype))

    def _conv(self, x, h):
        return F.conv2d_forward(
            np.concatenate([x, h], axis=3), self.params["w"], self.params["b"], stride=1,
            padding=self.kernel // 2,
        )

    def _conv_backward(self, dz, conv_cache, need_dx):
        """(dx, dh_prev) through ``_conv``; dx is None without ``need_dx``."""
        m = self.input_size
        dxc, dw, db = F.conv2d_backward(dz, conv_cache, self.params["w"], 0 if need_dx else m)
        self.grads["w"] += dw
        self.grads["b"] += db
        return (dxc[..., :m], dxc[..., m:]) if need_dx else (None, dxc)


class ConvLSTMCell(ConvCell):
    """LSTM with convolutional transforms, gates packed as in ``LSTMCell``."""

    gates = 4
    state_count = 2

    def step(self, x, state):
        h, c = state
        z, conv_cache = self._conv(x, h)
        h_new, c_new, gate_cache = _lstm_gates(z, c, self.hidden_size)
        return h_new, (h_new, c_new), (conv_cache, gate_cache)

    def backstep(self, cache, dh, dstate, need_dx=True):
        conv_cache, gate_cache = cache
        dz, dc_prev = _lstm_gates_backward(gate_cache, dh, dstate)
        dx, dh_prev = self._conv_backward(dz, conv_cache, need_dx)
        return dx, (dh_prev, dc_prev)


class ConvElmanCell(ConvCell):
    """Elman recurrence with convolutional transforms (tanh), used by the
    convolutional-RNN predictor."""

    def step(self, x, state):
        (h,) = state
        z, conv_cache = self._conv(x, h)
        h_new = np.tanh(z)
        return h_new, (h_new,), (conv_cache, h_new)

    def backstep(self, cache, dh, dstate, need_dx=True):
        conv_cache, h_new = cache
        if dstate is not None:
            dh = dh + dstate[0]
        dx, dh_prev = self._conv_backward(F.tanh_backward(dh, h_new), conv_cache, need_dx)
        return dx, (dh_prev,)


class Recurrence(Layer):
    """Backpropagation through time over a (b, k, ...) window: steps the
    stacked cells frame by frame from zero states and returns the top cell's
    last hidden state; ``backward`` returns the gradient of the window. The
    cells own the parameters, so a model registers them in its place."""

    def __init__(self, name, cells: list[Cell]):
        super().__init__(name)
        self.cells = cells
        self._caches: list[list] = []

    def modules(self):
        return list(self.cells)

    def forward(self, x, train=True):
        states = [cell.init_state(x[:, 0]) for cell in self.cells]
        self._caches = [[] for _ in self.cells] if train else []
        for t in range(x.shape[1]):
            h = x[:, t]
            for layer, cell in enumerate(self.cells):
                h, states[layer], cache = cell.step(h, states[layer])
                if train:
                    self._caches[layer].append(cache)
        return h

    def backward(self, dy, need_dx=True):
        caches, self._caches = self._caches, []
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
