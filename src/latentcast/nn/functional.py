"""Array-level forward/backward primitives with explicit caches.

Every function returns the forward value plus whatever the matching
backward needs, so recurrent cells can keep one cache per timestep; the
caller keeps it from a training-mode forward to its backward only, and
eval-mode ``batchnorm_forward`` returns ``None`` for it. Weighted backward
kernels return dx for input channels ``dx_from`` on, or None for ``dx_from=None``.
Layout is channels-last: images (N, H, W, C), volumes (N, D, H, W, C).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..errors import ShapeError


def _windows(xp: np.ndarray, k, stride: int, out) -> np.ndarray:
    """im2col: the (N, *out, *k, C) read-only view of the kernel windows of
    the channels-last array ``xp``, window origins ``stride`` apart."""
    sn, *sp, sc = xp.strides
    return as_strided(
        xp,
        (xp.shape[0], *out, *k, xp.shape[-1]),
        (sn, *(stride * s for s in sp), *sp, sc),
        writeable=False,
    )


def _col2im(cols: np.ndarray, shape, stride: int, out, dtype) -> np.ndarray:
    """col2im, the adjoint of ``_windows``: scatter-add the (N, *out, *k, C)
    windows into a zero array of ``shape``, one kernel offset at a time."""
    buf = np.zeros(shape, dtype=dtype)
    nd = len(out)
    for offset in np.ndindex(*cols.shape[1 + nd : 1 + 2 * nd]):
        dst = tuple(slice(i, i + stride * o, stride) for i, o in zip(offset, out))
        buf[(slice(None), *dst)] += cols[(slice(None),) * (1 + nd) + offset]
    return buf


# -- convolution (2-D and 3-D share one body) ----------------------------------


def _conv_forward(x, w, b, stride, pads, name):
    nd = x.ndim - 2
    k, cin, cout = w.shape[:nd], w.shape[nd], w.shape[-1]
    if x.shape[-1] != cin:
        raise ShapeError(f"{name}: input has {x.shape[-1]} channels, kernel expects {cin}")
    out = tuple((s + 2 * p - kk) // stride + 1 for s, p, kk in zip(x.shape[1:-1], pads, k))
    if min(out) < 1:
        raise ShapeError(
            f"{name}: input {'x'.join(map(str, x.shape[1:-1]))} too small for kernel "
            f"{'x'.join(map(str, k))}"
        )
    xp = np.pad(x, ((0, 0), *((p, p) for p in pads), (0, 0))) if any(pads) else x
    cols = _windows(xp, k, stride, out).reshape(-1, w.size // cout)
    y = (cols @ w.reshape(-1, cout) + b).reshape(x.shape[0], *out, cout)
    return y, (cols, x.shape, stride, pads, out)


def _conv_backward(dy, cache, w, dx_from):
    """(dx, dw, db) of ``_conv_forward``: dx is col2im of the column gradient."""
    cols, x_shape, stride, pads, out = cache
    cout = w.shape[-1]
    dyf = dy.reshape(-1, cout)
    db = dyf.sum(axis=0)
    dw = (cols.T @ dyf).reshape(w.shape)
    if dx_from is None:
        return None, dw, db
    w = w[..., dx_from:, :]
    dcols = (dyf @ w.reshape(-1, cout).T).reshape(x_shape[0], *out, *w.shape[:-1])
    spatial = x_shape[1:-1]
    padded = (x_shape[0], *(s + 2 * p for s, p in zip(spatial, pads)), w.shape[-2])
    dxp = _col2im(dcols, padded, stride, out, dy.dtype)
    return dxp[(slice(None), *(slice(p, p + s) for s, p in zip(spatial, pads)))], dw, db


def conv2d_forward(x, w, b, stride=1, padding=0):
    """x (N,H,W,Cin), w (KH,KW,Cin,Cout) -> (N,OH,OW,Cout) via im2col matmul."""
    return _conv_forward(x, w, b, stride, (padding, padding), "conv2d")


# each public kernel is its own function (no aliases, no calls between them),
# so wrappers installed by name count every kernel apart
def conv2d_backward(dy, cache, w, dx_from=0):
    return _conv_backward(dy, cache, w, dx_from)


def conv3d_forward(x, w, b, padding=(0, 1, 1)):
    """x (N,D,H,W,Cin), w (KD,KH,KW,Cin,Cout), unit stride."""
    return _conv_forward(x, w, b, 1, tuple(padding), "conv3d")


def conv3d_backward(dy, cache, w, dx_from=0):
    return _conv_backward(dy, cache, w, dx_from)


# -- transposed 2-D convolution: col2im forward, im2col backward ------------


def conv_transpose2d_forward(x, w, b, stride=2, padding=1, output_padding=1):
    """x (N,H,W,Cin), w (KH,KW,Cin,Cout) -> (N,G,G',Cout) with
    G = (H-1)*stride - 2*padding + KH + output_padding."""
    n, h, wd, cin = x.shape
    kh, kw, wcin, cout = w.shape
    if cin != wcin:
        raise ShapeError(f"conv_transpose2d: input has {cin} channels, kernel expects {wcin}")
    gh = (h - 1) * stride - 2 * padding + kh + output_padding
    gw = (wd - 1) * stride - 2 * padding + kw + output_padding
    if gh < 1 or gw < 1:
        raise ShapeError("conv_transpose2d: output shape collapsed to zero")
    t = (x.reshape(-1, cin) @ w.transpose(2, 0, 1, 3).reshape(cin, -1)).reshape(
        n, h, wd, kh, kw, cout
    )
    bufh = (h - 1) * stride + kh + output_padding
    bufw = (wd - 1) * stride + kw + output_padding
    buf = _col2im(t, (n, bufh, bufw, cout), stride, (h, wd), x.dtype)
    y = buf[:, padding : padding + gh, padding : padding + gw, :] + b
    return y, (x, stride, padding, gh, gw, bufh, bufw)


def conv_transpose2d_backward(dy, cache, w, dx_from=0):
    x, stride, padding, gh, gw, bufh, bufw = cache
    n, h, wd, cin = x.shape
    kh, kw, _, cout = w.shape
    dbuf = np.zeros((n, bufh, bufw, cout), dtype=dy.dtype)
    dbuf[:, padding : padding + gh, padding : padding + gw, :] = dy
    winf = _windows(dbuf, (kh, kw), stride, (h, wd)).reshape(n * h * wd, kh * kw * cout)
    w2 = w.transpose(2, 0, 1, 3).reshape(cin, -1)
    dx = None if dx_from is None else (winf @ w2[dx_from:].T).reshape(n, h, wd, -1)
    dw = (x.reshape(-1, cin).T @ winf).reshape(cin, kh, kw, cout).transpose(1, 2, 0, 3)
    db = dy.sum(axis=(0, 1, 2))
    return dx, dw, db


# -- dense --------------------------------------------------------------------


def dense_forward(x, w, b):
    if x.shape[-1] != w.shape[0]:
        raise ShapeError(f"dense: input has {x.shape[-1]} features, weight expects {w.shape[0]}")
    return x @ w + b, x


def dense_backward(dy, cache, w, dx_from=0):
    x = cache
    dw = x.reshape(-1, x.shape[-1]).T @ dy.reshape(-1, dy.shape[-1])
    db = dy.reshape(-1, dy.shape[-1]).sum(axis=0)
    return (None if dx_from is None else dy @ w[dx_from:].T), dw, db


# -- batch normalization -------------------------------------------------------


def batchnorm_forward(x, gamma, beta, running_mean, running_var, momentum, eps, train):
    """Per-channel (last axis) normalization. Running buffers are updated in
    place in train mode and consumed in eval mode.

    Train mode centres ``x`` once and normalizes the centred copy in place;
    the cache holds ``xhat``. Eval mode is one affine map with no cache."""
    if not train:
        scale = gamma * (1.0 / np.sqrt(running_var + eps))
        y = x * scale
        y += beta - running_mean * scale
        return y, None
    axes = tuple(range(x.ndim - 1))
    count = x.size // x.shape[-1]
    mean = x.mean(axis=axes)
    xhat = x - mean
    flat = xhat.reshape(count, -1)
    var = np.einsum("ij,ij->j", flat, flat) / count
    running_mean *= momentum
    running_mean += (1.0 - momentum) * mean
    running_var *= momentum
    running_var += (1.0 - momentum) * var
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    y = xhat * gamma
    y += beta
    return y, (xhat, inv, axes)


def batchnorm_backward(dy, cache, gamma):
    """Closed-form input gradient of a train-mode forward (Ioffe & Szegedy
    2015): dx = gamma*inv*(dy - dbeta/count - xhat*dgamma/count)."""
    xhat, inv, axes = cache
    c = xhat.shape[-1]
    count = xhat.size // c
    dbeta = dy.sum(axis=axes)
    dgamma = np.einsum("ij,ij->j", dy.reshape(count, c), xhat.reshape(count, c))
    scale = gamma * inv
    dx = xhat * (dgamma / -count)
    dx += dy
    dx -= dbeta / count
    dx *= scale
    return dx, dgamma, dbeta


# -- activations ----------------------------------------------------------------


def leaky_relu_forward(x, slope):
    """max(x, slope*x), which is leaky ReLU for 0 <= slope <= 1."""
    return np.maximum(x, slope * x), x


def leaky_relu_backward(dy, cache, slope):
    x = cache
    # k is 1 where x > 0 and slope elsewhere; (1 - s) + s rounds to exactly 1
    # in the array's own precision, so dy * k equals where(x > 0, dy, s*dy)
    s = dy.dtype.type(slope)
    k = (x > 0).astype(dy.dtype)
    k *= dy.dtype.type(1) - s
    k += s
    k *= dy
    return k


def sigmoid(x):
    """0.5*tanh(0.5*x) + 0.5: the logistic function without overflow, in
    [0, 1] for every finite input."""
    out = np.multiply(x, 0.5)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


def sigmoid_backward(dy, y):
    return dy * y * (1.0 - y)


def tanh_backward(dy, y):
    return dy * (1.0 - y * y)
