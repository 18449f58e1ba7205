"""Raw sequences to standardized training corpus.

Length truncation, Lanczos-3 resizing, Otsu binarization, black-border
cropping, stratified subsetting, and the centroid-based temporal-continuity
diagnostic.
"""

from __future__ import annotations

import collections
import functools
import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dataio import FrameSequence, VideoDataset
from .errors import ChannelError, ConfigError, SubsetSizeError, TooShortError, _seeded_rng

DEFAULT_BORDER_THRESHOLD = 10 / 255


@dataclass
class PreprocessSpec:
    """Standardization settings for one dataset."""

    target_length: int = 20
    target_size: tuple[int, int] = (64, 64)
    binarize: bool = False
    crop_borders: bool = False
    border_threshold: float = DEFAULT_BORDER_THRESHOLD

    def __post_init__(self) -> None:
        if self.target_length < 2:
            raise ConfigError("target_length must be >= 2 (need at least one (input, next) pair)")
        if min(self.target_size) < 8:
            raise ConfigError("target_size must be >= 8 so three stride-2 halvings stay integral")


@dataclass
class ContinuityReport:
    """Centroid-distance diagnostic over all frame lags of a sequence."""

    per_lag_mean_distance: list[tuple[int, float]]
    monotone_fraction: float
    skipped_frames: list[int] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Lanczos-3 resampling
# ---------------------------------------------------------------------------


def _lanczos_kernel(x: np.ndarray, a: int) -> np.ndarray:
    out = np.sinc(x) * np.sinc(x / a)
    out[np.abs(x) >= a] = 0.0
    return out


@functools.lru_cache(maxsize=32)
def lanczos_weight_matrix(in_size: int, out_size: int, a: int = 3) -> np.ndarray:
    """Row-normalized (out_size, in_size) resampling matrix for one axis.

    Output pixel i samples input coordinate (i + 0.5) * scale - 0.5; on
    downscale the kernel is stretched by the scale factor. Taps falling
    outside the image are dropped and the rest renormalized, so each row
    sums to exactly 1. The matrix is cached per (in_size, out_size, a) and
    shared by every caller, so it is read-only.
    """
    scale = in_size / out_size
    filter_scale = max(scale, 1.0)
    support = a * filter_scale
    weights = np.zeros((out_size, in_size), dtype=np.float64)
    for i in range(out_size):
        center = (i + 0.5) * scale - 0.5
        lo = max(int(np.floor(center - support)) + 1, 0)
        hi = min(int(np.floor(center + support)), in_size - 1)
        taps = np.arange(lo, hi + 1)
        w = _lanczos_kernel((taps - center) / filter_scale, a)
        weights[i, lo : hi + 1] = w / w.sum()
    weights.flags.writeable = False
    return weights


def resize_lanczos(frame: np.ndarray, target: tuple[int, int], a: int = 3) -> np.ndarray:
    """Separable Lanczos resampling of an (H, W) or (H, W, C) frame to
    ``target`` = (height, width), clamped to [0, 1]."""
    if frame.ndim == 2:
        return resize_sequence(frame[None, :, :, None], target, a)[0, :, :, 0]
    return resize_sequence(frame[None], target, a)[0]


def resize_sequence(frames: np.ndarray, target: tuple[int, int], a: int = 3) -> np.ndarray:
    """Resize a (T, H, W, C) stack with shared weight matrices."""
    t, h, w, c = frames.shape
    row_m = lanczos_weight_matrix(h, target[0], a)
    col_m = lanczos_weight_matrix(w, target[1], a)
    out = np.einsum("oh,thwc,pw->topc", row_m, frames.astype(np.float64), col_m, optimize=True)
    return np.clip(out, 0.0, 1.0).astype(np.float32)


# ---------------------------------------------------------------------------
# Otsu binarization
# ---------------------------------------------------------------------------


def otsu_threshold(frame: np.ndarray) -> int | None:
    """Histogram bin (0..255) maximizing between-class variance, or None for
    a degenerate (single-level) histogram."""
    levels = np.clip(np.rint(frame * 255.0), 0, 255).astype(np.int64)
    hist = np.bincount(levels.ravel(), minlength=256).astype(np.float64)
    total = hist.sum()
    p = hist / total
    omega0 = np.cumsum(p)
    mu_cum = np.cumsum(p * np.arange(256))
    mu_total = mu_cum[-1]
    omega1 = 1.0 - omega0
    valid = (omega0 > 0) & (omega1 > 0)
    if not valid.any():
        return None
    with np.errstate(divide="ignore", invalid="ignore"):
        mu0 = mu_cum / omega0
        mu1 = (mu_total - mu_cum) / omega1
        bcv = omega0 * omega1 * (mu0 - mu1) ** 2
    bcv[~valid] = -1.0
    return int(np.argmax(bcv))


def otsu_binarize(frame: np.ndarray) -> np.ndarray:
    """Binarize a single-channel frame at the Otsu threshold.

    Output values are exactly {0.0, 1.0}; pixels strictly above the
    threshold map to 1. A constant frame binarizes to all zeros with a
    warning, since there is no foreground to keep.
    """
    squeeze = frame.ndim == 2
    work = frame if squeeze else frame[..., 0] if frame.shape[-1] == 1 else None
    if work is None:
        raise ChannelError(f"otsu_binarize needs a single channel, got {frame.shape[-1]}")
    t = otsu_threshold(work)
    if t is None:
        warnings.warn("constant frame: Otsu histogram degenerate, output all zeros")
        out = np.zeros_like(work, dtype=np.float32)
    else:
        out = (work > t / 255.0).astype(np.float32)
    return out if squeeze else out[..., None]


# ---------------------------------------------------------------------------
# Border cropping
# ---------------------------------------------------------------------------


def crop_bounds_sequence(
    frames: np.ndarray, threshold: float = DEFAULT_BORDER_THRESHOLD
) -> tuple[int, int, int, int]:
    """Shared (row0, row1, col0, col1) crop window for a whole sequence, so
    every frame keeps identical geometry."""
    intensity = frames.max(axis=(0, 3))
    row_keep = np.nonzero(intensity.max(axis=1) >= threshold)[0]
    col_keep = np.nonzero(intensity.max(axis=0) >= threshold)[0]
    if row_keep.size == 0 or col_keep.size == 0:
        return 0, frames.shape[1], 0, frames.shape[2]
    return row_keep[0], row_keep[-1] + 1, col_keep[0], col_keep[-1] + 1


# ---------------------------------------------------------------------------
# Stratified subsetting
# ---------------------------------------------------------------------------


def stratified_subset(
    ids_with_labels: list[tuple[str, str]], m: int, seed: int = 0
) -> list[str]:
    """Pick ``m`` ids balanced across labels.

    Allocation is round-robin water-filling over seeded label order: counts
    differ by at most 1 wherever label populations permit, scarce labels are
    capped at their population, and the leftover is spread one id at a time.
    """
    if not 1 <= m <= len(ids_with_labels):
        raise SubsetSizeError(f"requested {m} ids from a population of {len(ids_with_labels)}")
    by_label: dict[str, list[str]] = {}
    for seq_id, label in ids_with_labels:
        by_label.setdefault(label, []).append(seq_id)
    rng = _seeded_rng(seed)
    labels = sorted(by_label)
    label_order = [labels[i] for i in rng.permutation(len(labels))]
    pools = {lab: [by_label[lab][i] for i in rng.permutation(len(by_label[lab]))] for lab in labels}
    # the first m picks of the round-robin: round r takes every label with more than r ids
    rounds = (lab for r in itertools.count() for lab in label_order if len(pools[lab]) > r)
    counts = collections.Counter(itertools.islice(rounds, m))
    return [seq_id for lab in label_order for seq_id in pools[lab][: counts[lab]]]


# ---------------------------------------------------------------------------
# Temporal continuity
# ---------------------------------------------------------------------------


def frame_centroid(frame: np.ndarray) -> np.ndarray | None:
    """Intensity-weighted mean (row, col) of a frame, or None if all-zero."""
    gray = frame.mean(axis=2) if frame.ndim == 3 else frame
    mass = gray.sum()
    if mass <= 0:
        return None
    rows, cols = np.indices(gray.shape)
    return np.array([(rows * gray).sum() / mass, (cols * gray).sum() / mass])


def verify_continuity(seq: FrameSequence) -> ContinuityReport:
    """Mean centroid displacement per frame lag plus how often it grows.

    For natural motion the mean distance should rise with lag; ties count
    as nondecreasing. All-zero frames have no centroid and are skipped.
    """
    if len(seq) < 3:
        raise TooShortError(f"continuity check needs >= 3 frames, got {len(seq)}")
    centroids: list[np.ndarray | None] = []
    skipped: list[int] = []
    for t in range(len(seq)):
        c = frame_centroid(seq.frames[t])
        if c is None:
            skipped.append(t)
        centroids.append(c)
    n = len(seq)
    per_lag: list[tuple[int, float]] = []
    for k in range(1, n):
        dists = [
            float(np.linalg.norm(centroids[t + k] - centroids[t]))
            for t in range(n - k)
            if centroids[t] is not None and centroids[t + k] is not None
        ]
        per_lag.append((k, float(np.mean(dists)) if dists else float("nan")))
    means = [d for _, d in per_lag]
    pairs = [
        (a, b) for a, b in zip(means[:-1], means[1:]) if not (np.isnan(a) or np.isnan(b))
    ]
    monotone = (
        sum(1 for a, b in pairs if b >= a) / len(pairs) if pairs else float("nan")
    )
    return ContinuityReport(
        per_lag_mean_distance=per_lag, monotone_fraction=monotone, skipped_frames=skipped
    )


# ---------------------------------------------------------------------------
# Whole-dataset pipeline
# ---------------------------------------------------------------------------


def preprocess_sequence(frames: np.ndarray, spec: PreprocessSpec) -> np.ndarray:
    """Apply crop -> resize -> binarize to one (T, H, W, C) sequence already
    truncated to the target length. Cropping precedes resizing so border
    pixels never bleed into the resampled image."""
    if spec.crop_borders:
        r0, r1, c0, c1 = crop_bounds_sequence(frames, spec.border_threshold)
        frames = frames[:, r0:r1, c0:c1]
    if frames.shape[1:3] != spec.target_size:
        frames = resize_sequence(frames, spec.target_size)
    if spec.binarize:
        if frames.shape[3] != 1:
            raise ChannelError("binarization requires single-channel frames")
        frames = np.stack([otsu_binarize(frames[t]) for t in range(frames.shape[0])])
    return frames.astype(np.float32, copy=False)


def preprocess_dataset(dataset: VideoDataset, spec: PreprocessSpec) -> VideoDataset:
    """Standardize every sequence of a dataset to (target_length, H, W, C)."""
    out = np.empty(
        (len(dataset), spec.target_length, *spec.target_size, dataset.data.shape[4]),
        dtype=np.float32,
    )
    for i in range(len(dataset)):
        seq = dataset.data[i, : spec.target_length]
        if dataset.data.shape[1] < spec.target_length:
            raise TooShortError(
                f"sequence {dataset.ids[i]!r} has {dataset.data.shape[1]} frames, "
                f"needs {spec.target_length}"
            )
        out[i] = preprocess_sequence(seq, spec)
    return VideoDataset(out, list(dataset.ids), dataset.labels)
