"""Array-level forward/backward primitives with explicit caches.

Every function returns the forward value plus whatever the matching
backward needs, so recurrent cells can keep one cache per timestep.
Layout is channels-last: images (N, H, W, C), volumes (N, D, H, W, C).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..errors import ShapeError


def _windows2d(xp: np.ndarray, kh: int, kw: int, stride: int, oh: int, ow: int) -> np.ndarray:
    n, _, _, c = xp.shape
    sn, sh, sw, sc = xp.strides
    return as_strided(
        xp,
        (n, oh, ow, kh, kw, c),
        (sn, stride * sh, stride * sw, sh, sw, sc),
        writeable=False,
    )


# -- 2-D convolution ---------------------------------------------------------


def conv2d_forward(x, w, b, stride=1, padding=0):
    """x (N,H,W,Cin), w (KH,KW,Cin,Cout) -> (N,OH,OW,Cout) via im2col matmul."""
    n, h, wd, c = x.shape
    kh, kw, cin, cout = w.shape
    if c != cin:
        raise ShapeError(f"conv2d: input has {c} channels, kernel expects {cin}")
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    if oh < 1 or ow < 1:
        raise ShapeError(f"conv2d: input {h}x{wd} too small for kernel {kh}x{kw}")
    xp = np.pad(x, ((0, 0), (padding,) * 2, (padding,) * 2, (0, 0))) if padding else x
    cols = _windows2d(xp, kh, kw, stride, oh, ow).reshape(n * oh * ow, kh * kw * cin)
    y = (cols @ w.reshape(-1, cout) + b).reshape(n, oh, ow, cout)
    return y, (cols, x.shape, stride, padding, oh, ow)


def conv2d_backward(dy, cache, w):
    cols, x_shape, stride, padding, oh, ow = cache
    n, h, wd, cin = x_shape
    kh, kw, _, cout = w.shape
    dyf = dy.reshape(n * oh * ow, cout)
    db = dyf.sum(axis=0)
    dw = (cols.T @ dyf).reshape(w.shape)
    dcols = (dyf @ w.reshape(-1, cout).T).reshape(n, oh, ow, kh, kw, cin)
    dxp = np.zeros((n, h + 2 * padding, wd + 2 * padding, cin), dtype=dy.dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[:, i : i + stride * oh : stride, j : j + stride * ow : stride, :] += dcols[
                :, :, :, i, j, :
            ]
    dx = dxp[:, padding : padding + h, padding : padding + wd, :] if padding else dxp
    return dx, dw, db


# -- transposed 2-D convolution ----------------------------------------------


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
    buf = np.zeros((n, bufh, bufw, cout), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            buf[:, i : i + stride * h : stride, j : j + stride * wd : stride, :] += t[
                :, :, :, i, j, :
            ]
    y = buf[:, padding : padding + gh, padding : padding + gw, :] + b
    return y, (x, stride, padding, gh, gw, bufh, bufw)


def conv_transpose2d_backward(dy, cache, w):
    x, stride, padding, gh, gw, bufh, bufw = cache
    n, h, wd, cin = x.shape
    kh, kw, _, cout = w.shape
    dbuf = np.zeros((n, bufh, bufw, cout), dtype=dy.dtype)
    dbuf[:, padding : padding + gh, padding : padding + gw, :] = dy
    winf = _windows2d(dbuf, kh, kw, stride, h, wd).reshape(n * h * wd, kh * kw * cout)
    w2 = w.transpose(2, 0, 1, 3).reshape(cin, -1)
    dx = (winf @ w2.T).reshape(n, h, wd, cin)
    dw = (x.reshape(-1, cin).T @ winf).reshape(cin, kh, kw, cout).transpose(1, 2, 0, 3)
    db = dy.sum(axis=(0, 1, 2))
    return dx, dw, db


# -- 3-D convolution (stride 1) ----------------------------------------------


def conv3d_forward(x, w, b, padding=(0, 1, 1)):
    """x (N,D,H,W,Cin), w (KD,KH,KW,Cin,Cout), unit stride."""
    n, d, h, wd, c = x.shape
    kd, kh, kw, cin, cout = w.shape
    if c != cin:
        raise ShapeError(f"conv3d: input has {c} channels, kernel expects {cin}")
    pd, ph, pw = padding
    xp = np.pad(x, ((0, 0), (pd, pd), (ph, ph), (pw, pw), (0, 0)))
    od, oh, ow = d + 2 * pd - kd + 1, h + 2 * ph - kh + 1, wd + 2 * pw - kw + 1
    if min(od, oh, ow) < 1:
        raise ShapeError(f"conv3d: input {d}x{h}x{wd} too small for kernel {kd}x{kh}x{kw}")
    sn, sd, sh, sw, sc = xp.strides
    cols = as_strided(
        xp,
        (n, od, oh, ow, kd, kh, kw, c),
        (sn, sd, sh, sw, sd, sh, sw, sc),
        writeable=False,
    ).reshape(n * od * oh * ow, kd * kh * kw * c)
    y = (cols @ w.reshape(-1, cout) + b).reshape(n, od, oh, ow, cout)
    return y, (cols, x.shape, padding, od, oh, ow)


def conv3d_backward(dy, cache, w):
    cols, x_shape, padding, od, oh, ow = cache
    n, d, h, wd, cin = x_shape
    kd, kh, kw = w.shape[:3]
    cout = w.shape[4]
    pd, ph, pw = padding
    dyf = dy.reshape(-1, cout)
    db = dyf.sum(axis=0)
    dw = (cols.T @ dyf).reshape(w.shape)
    dcols = (dyf @ w.reshape(-1, cout).T).reshape(n, od, oh, ow, kd, kh, kw, cin)
    dxp = np.zeros((n, d + 2 * pd, h + 2 * ph, wd + 2 * pw, cin), dtype=dy.dtype)
    for a in range(kd):
        for i in range(kh):
            for j in range(kw):
                dxp[:, a : a + od, i : i + oh, j : j + ow, :] += dcols[:, :, :, :, a, i, j, :]
    dx = dxp[:, pd : pd + d, ph : ph + h, pw : pw + wd, :]
    return dx, dw, db


# -- dense --------------------------------------------------------------------


def dense_forward(x, w, b):
    if x.shape[-1] != w.shape[0]:
        raise ShapeError(f"dense: input has {x.shape[-1]} features, weight expects {w.shape[0]}")
    return x @ w + b, x


def dense_backward(dy, cache, w):
    x = cache
    dw = x.reshape(-1, x.shape[-1]).T @ dy.reshape(-1, dy.shape[-1])
    db = dy.reshape(-1, dy.shape[-1]).sum(axis=0)
    dx = dy @ w.T
    return dx, dw, db


# -- batch normalization -------------------------------------------------------


def batchnorm_forward(x, gamma, beta, running_mean, running_var, momentum, eps, train):
    """Per-channel (last axis) normalization. Running buffers are updated in
    place in train mode and consumed in eval mode.

    Train mode centres ``x`` once and normalizes the centred copy in place;
    the cache holds ``xhat``. Eval mode is one affine map and caches the
    input itself, from which backward rebuilds ``xhat``."""
    axes = tuple(range(x.ndim - 1))
    if not train:
        inv = 1.0 / np.sqrt(running_var + eps)
        scale = gamma * inv
        y = x * scale
        y += beta - running_mean * scale
        return y, (x, running_mean.copy(), inv, axes, False)
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
    return y, (xhat, None, inv, axes, True)


def batchnorm_backward(dy, cache, gamma):
    """Closed-form input gradient (Ioffe & Szegedy 2015):
    dx = gamma*inv*(dy - dbeta/count - xhat*dgamma/count) in train mode,
    dy*gamma*inv in eval mode, where the running statistics are constants."""
    src, mean, inv, axes, train = cache
    xhat = src if train else (src - mean) * inv
    c = xhat.shape[-1]
    count = xhat.size // c
    dbeta = dy.sum(axis=axes)
    dgamma = np.einsum("ij,ij->j", dy.reshape(count, c), xhat.reshape(count, c))
    scale = gamma * inv
    if not train:
        return dy * scale, dgamma, dbeta
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
