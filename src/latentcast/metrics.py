"""Frame-quality metrics: MAE, MSE, windowed SSIM, Gaussian KL divergence,
and the four-interval score breakdown.

SSIM follows the Wang et al. 2004 reference: sliding 11x11 Gaussian window
(sigma 1.5), C1 = (0.01 L)^2, C2 = (0.03 L)^2, C3 = C2 / 2, unit exponents.
Color frames score as the mean of per-channel SSIM.

The Gaussian window is separable (the outer product of one normalized 1-D
Gaussian with itself), so the windowed moments are two 1-D valid-mode
passes, each one matrix product with a banded matrix, batched over every
frame and channel of a stack at once. ``score_frames`` scores a whole stack
in one such call; ``ssim`` is the same code on a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateRangeError, DegenerateStatsError, ShapeError, WindowError

INTERVAL_LABELS = ("excellent", "good", "fair", "poor")


@dataclass
class SSIMParams:
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    window_side: int = 11
    window_sigma: float = 1.5
    dynamic_range: float = 1.0
    k1: float = 0.01
    k2: float = 0.03

    def __post_init__(self) -> None:
        if min(self.alpha, self.beta, self.gamma) <= 0:
            raise ConfigError("SSIM exponents must be positive")
        if self.window_side % 2 != 1:
            raise ConfigError("SSIM window side must be odd")

    @property
    def c1(self) -> float:
        return (self.k1 * self.dynamic_range) ** 2

    @property
    def c2(self) -> float:
        return (self.k2 * self.dynamic_range) ** 2

    @property
    def c3(self) -> float:
        return self.c2 / 2.0


@dataclass
class LatentStats:
    """Per-unit mean and standard deviation of an activation population."""

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self) -> None:
        self.mu = np.asarray(self.mu, dtype=np.float64).ravel()
        self.sigma = np.asarray(self.sigma, dtype=np.float64).ravel()
        if self.mu.shape != self.sigma.shape:
            raise ShapeError("mu and sigma must have the same length")


@dataclass
class IntervalBucket:
    upper: float
    lower: float
    count: int
    label: str


@dataclass
class IntervalReport:
    """Equal-width four-way partition of per-frame scores, best to worst."""

    buckets: list[IntervalBucket]
    range_width: float

    @property
    def counts(self) -> list[int]:
        return [b.count for b in self.buckets]


def _check_shapes(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")


def mae(a: np.ndarray, b: np.ndarray) -> float:
    """Mean absolute per-element difference."""
    _check_shapes(a, b)
    return float(np.mean(np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64))))


def mse(a: np.ndarray, b: np.ndarray) -> float:
    """Mean squared per-element difference."""
    _check_shapes(a, b)
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return float(np.mean(d * d))


def _gaussian(side: int, sigma: float) -> np.ndarray:
    """Unnormalized 1-D Gaussian taps centred on the middle of ``side``."""
    coords = np.arange(side, dtype=np.float64) - side // 2
    return np.exp(-(coords**2) / (2.0 * sigma * sigma))


def gaussian_window(side: int, sigma: float) -> np.ndarray:
    """Normalized 2-D Gaussian weights."""
    g = _gaussian(side, sigma)
    w = np.outer(g, g)
    return w / w.sum()


def _band(g: np.ndarray, n: int) -> np.ndarray:
    """(n - len(g) + 1, n) matrix whose product with a length-n signal is the
    valid-mode correlation with ``g``."""
    out = np.zeros((n - g.size + 1, n))
    for i in range(out.shape[0]):
        out[i, i : i + g.size] = g
    return out


def _ssim_stack(x: np.ndarray, y: np.ndarray, params: SSIMParams) -> np.ndarray:
    """Per-frame SSIM of two float64 (N, H, W, C) stacks: the mean of each
    frame's score map over its positions and channels."""
    n, h, wd, c = x.shape
    side = params.window_side
    if h < side or wd < side:
        raise WindowError(f"frame {h}x{wd} smaller than the {side}x{side} SSIM window")
    g = _gaussian(side, params.window_sigma)
    g /= g.sum()
    rows, cols = _band(g, h), _band(g, wd).T
    # (N, C, H, W) planes: the column pass is one matrix product over all of them
    x = x.transpose(0, 3, 1, 2)
    y = y.transpose(0, 3, 1, 2)

    def window_mean(a):
        return rows @ (a.reshape(-1, wd) @ cols).reshape(n, c, h, -1)

    mu_x, mu_y = window_mean(x), window_mean(y)
    xx, yy, xy = window_mean(x * x), window_mean(y * y), window_mean(x * y)
    var_x = np.maximum(xx - mu_x * mu_x, 0.0)
    var_y = np.maximum(yy - mu_y * mu_y, 0.0)
    cov = xy - mu_x * mu_y
    c1, c2, c3 = params.c1, params.c2, params.c3
    unit_exponents = params.alpha == params.beta == params.gamma == 1.0
    if unit_exponents and c3 == c2 / 2.0:
        # two-term collapse: exact 1.0 on identical inputs
        score_map = ((2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)) / (
            (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
        )
    else:
        sx, sy = np.sqrt(var_x), np.sqrt(var_y)
        lum = (2.0 * mu_x * mu_y + c1) / (mu_x * mu_x + mu_y * mu_y + c1)
        con = (2.0 * sx * sy + c2) / (var_x + var_y + c2)
        stru = (cov + c3) / (sx * sy + c3)
        score_map = (
            np.sign(lum) * np.abs(lum) ** params.alpha
            * np.abs(con) ** params.beta
            * np.sign(stru) * np.abs(stru) ** params.gamma
        )
    return score_map.mean(axis=(1, 2, 3))


def _with_channels(a: np.ndarray, lead: int) -> np.ndarray:
    """float64 copy or view of ``a`` with ``lead`` leading axes followed by
    (H, W, C); an (H, W) frame gets a channel axis."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim == lead + 3:
        return a
    if a.ndim == lead + 2:
        return a[..., None]
    raise ShapeError(f"ssim expects (H, W) or (H, W, C) frames, got shape {a.shape}")


def ssim(x: np.ndarray, y: np.ndarray, params: SSIMParams | None = None) -> float:
    """Structural similarity of two frames in [-1, 1]; 1 means identical.

    Accepts (H, W) or (H, W, C); multi-channel frames score as the mean of
    per-channel SSIM.
    """
    _check_shapes(x, y)
    x, y = _with_channels(x, 0)[None], _with_channels(y, 0)[None]
    return float(_ssim_stack(x, y, params or SSIMParams())[0])


def latent_stats(activations: np.ndarray) -> LatentStats:
    """Per-unit mean and (population) standard deviation over the leading
    axis of an (N, ...) activation stack."""
    flat = np.asarray(activations, dtype=np.float64).reshape(activations.shape[0], -1)
    return LatentStats(mu=flat.mean(axis=0), sigma=flat.std(axis=0))


def kl_gauss(stats: LatentStats) -> float:
    """KL divergence of per-unit N(mu_i, sigma_i) from N(0, 1), summed over
    units: 0.5 * sum(mu^2 + sigma^2 - ln sigma^2 - 1). Always >= 0."""
    if np.any(stats.sigma <= 0):
        bad = int(np.sum(stats.sigma <= 0))
        raise DegenerateStatsError(f"{bad} units have sigma <= 0; KL undefined")
    s2 = stats.sigma**2
    return float(0.5 * np.sum(stats.mu**2 + s2 - np.log(s2) - 1.0))


def bucketize_intervals(scores: list[float] | np.ndarray) -> IntervalReport:
    """Split scores into four equal-width quality bands over [min, max].

    Band boundaries belong to the better band; counts sum to the number of
    scores.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    if scores.size < 2 or np.unique(scores).size < 2:
        raise DegenerateRangeError("interval bucketing needs at least two distinct scores")
    hi, lo = float(scores.max()), float(scores.min())
    width = (hi - lo) / 4.0
    edges = [hi - i * width for i in range(5)]
    edges[-1] = lo
    buckets: list[IntervalBucket] = []
    for i, label in enumerate(INTERVAL_LABELS):
        upper, lower = edges[i], edges[i + 1]
        if i == 0:
            mask = scores >= lower
        elif i == len(INTERVAL_LABELS) - 1:
            mask = scores < edges[i]
        else:
            mask = (scores >= lower) & (scores < upper)
        buckets.append(IntervalBucket(upper=upper, lower=lower, count=int(mask.sum()), label=label))
    return IntervalReport(buckets=buckets, range_width=width)


@dataclass
class MetricReport:
    """Aggregate metric values for one prediction run."""

    mae: float
    mse: float
    ssim_mean: float
    ssim_scores: list[float] = field(default_factory=list)
    intervals: IntervalReport | None = None


def score_frames(
    pred: np.ndarray,
    truth: np.ndarray,
    params: SSIMParams | None = None,
    with_intervals: bool = True,
) -> MetricReport:
    """MAE/MSE/per-frame SSIM (plus intervals) for matched (N, H, W, C) stacks."""
    _check_shapes(pred, truth)
    scores = _ssim_stack(
        _with_channels(pred, 1), _with_channels(truth, 1), params or SSIMParams()
    ).tolist()
    intervals = None
    if with_intervals and len(scores) >= 2 and len(set(scores)) >= 2:
        intervals = bucketize_intervals(scores)
    return MetricReport(
        mae=mae(pred, truth),
        mse=mse(pred, truth),
        ssim_mean=float(np.mean(scores)),
        ssim_scores=[float(s) for s in scores],
        intervals=intervals,
    )
