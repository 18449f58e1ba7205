"""Exception taxonomy shared by all latentcast modules, and the numeric field
checks that raise ``ConfigError``."""

from __future__ import annotations

import math
import numbers

import numpy as np


class LatentcastError(Exception):
    """Base class for all library errors."""


class DataError(LatentcastError):
    """A problem with input data or files (CLI exit code 2)."""


class FormatError(DataError):
    """Malformed container or image file."""


class UnsupportedDtypeError(DataError):
    """Array file declares an element type outside the supported set."""


class TruncationError(DataError):
    """Array file payload is shorter than the declared shape requires."""


class InconsistentSequenceError(DataError):
    """Frames of one sequence disagree on dimensions."""


class GapError(DataError):
    """Frame directory is missing an index in the run 0..n-1."""


class InsufficientDataError(DataError):
    """Too few sequences or samples for the requested split or stage."""


class TooShortError(DataError):
    """Sequence has fewer frames than the standardization target."""


class ChannelError(DataError):
    """Operation requires a different channel count."""


class SubsetSizeError(DataError):
    """Requested subset exceeds the available population."""


class ShapeError(LatentcastError):
    """Array shapes do not line up for an operation or layer."""


class ConfigError(LatentcastError, ValueError):
    """Invalid model, grid, schedule or option value."""


class WindowError(LatentcastError):
    """Sequence too short for the requested input window."""


class FoldError(LatentcastError):
    """K-fold request incompatible with the number of sequences."""


class GridError(ConfigError):
    """Hyperparameter grid has an empty axis."""


class DegenerateStatsError(LatentcastError):
    """Latent statistics contain a zero or negative standard deviation."""


class DegenerateRangeError(LatentcastError):
    """All scores are equal; interval bucketing is undefined."""


class LeakageError(LatentcastError):
    """A test-partition sequence reached a training or selection stage."""


class TrainingAbortError(LatentcastError):
    """Training hit a non-finite loss or gradient (CLI exit code 3)."""


class NonFiniteGradientError(TrainingAbortError):
    """A gradient became NaN or infinite during an optimizer step."""


class CheckpointError(LatentcastError):
    """Checkpoint directory is missing files or inconsistent."""


def _check_int(name: str, value, low: int = 1) -> None:
    """``ConfigError`` unless ``value`` is an integer (not a bool) >= ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")


def _check_rate(name: str, value) -> None:
    """``ConfigError`` unless ``value`` is a finite real number > 0."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < math.inf:
        raise ConfigError(f"{name} must be a finite number > 0, got {value!r}")


def _seeded_rng(seed) -> np.random.Generator:
    """numpy's generator for ``seed``; ``ConfigError`` unless it is an integer >= 0."""
    _check_int("seed", seed, 0)
    return np.random.default_rng(seed)
