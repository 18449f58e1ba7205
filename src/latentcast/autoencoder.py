"""Convolutional autoencoder: stage 1 (feature extraction) and stage 3
(frame reconstruction) of the prediction workflow.

The encoder stacks stride-2 conv blocks (conv + batch norm + leaky ReLU),
halving the spatial side per block while widening channels along ``dims``;
the decoder mirrors it with transposed convolutions and a final sigmoid so
reconstructions stay in [0, 1].
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError, _check_int, _check_rate, _seeded_rng
from .nn.layers import BatchNorm, Conv2D, ConvTranspose2D, LeakyReLU, Sigmoid
from .nn.losses import LossKind
from .nn.network import Sequential, register_model_kind
from .nn.optim import Optimizer, OptimizerKind
from .training import TrainRun, TrainSchedule, _fit_scored, _predict_items, predict_batched

DEFAULT_LEAKY_SLOPE = 0.01


@dataclass
class AutoencoderConfig:
    """Channel ladder plus training hyperparameters (the per-dataset grid axes)."""

    dims: list[int] = field(default_factory=lambda: [64, 128, 256])
    loss: LossKind = LossKind.L1
    optimizer: OptimizerKind = OptimizerKind.ADAM
    learning_rate: float = 0.001
    input_channels: int = 1
    input_size: int = 64
    leaky_slope: float = DEFAULT_LEAKY_SLOPE

    def __post_init__(self) -> None:
        try:
            self.loss = LossKind(self.loss)
            self.optimizer = OptimizerKind(self.optimizer)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not self.dims:
            raise ConfigError("dims must list at least one channel count")
        for d in self.dims:
            _check_int("every dims entry", d)
        _check_rate("learning_rate", self.learning_rate)
        if self.input_channels not in (1, 3):
            raise ConfigError(f"input_channels must be 1 or 3, got {self.input_channels}")
        if self.input_size % (2 ** len(self.dims)) != 0:
            raise ConfigError(
                f"input size {self.input_size} not divisible by 2^{len(self.dims)}; "
                "bottleneck side would not be integral"
            )

    @property
    def bottleneck_shape(self) -> tuple[int, int, int]:
        side = self.input_size // (2 ** len(self.dims))
        return (side, side, self.dims[-1])


class Autoencoder(Sequential):
    """The encoder layers followed by the decoder layers; ``encoder`` and
    ``decoder`` are the two halves over the same layer objects."""

    def __init__(self, config: AutoencoderConfig, seed: int):
        self.config = config
        self.seed = seed
        slope = config.leaky_slope
        enc_layers = []
        cin = config.input_channels
        for i, cout in enumerate(config.dims):
            enc_layers += [
                Conv2D(f"enc{i}_conv", cin, cout, kernel=3, stride=2, padding=1),
                BatchNorm(f"enc{i}_norm", cout),
                LeakyReLU(f"enc{i}_act", slope),
            ]
            cin = cout
        dec_layers = []
        rev = list(reversed(config.dims))
        for i, cin_d in enumerate(rev):
            cout_d = rev[i + 1] if i + 1 < len(rev) else config.input_channels
            last = i + 1 == len(rev)
            dec_layers.append(
                ConvTranspose2D(
                    f"dec{i}_conv", cin_d, cout_d, kernel=3, stride=2, padding=1, output_padding=1
                )
            )
            if last:
                dec_layers.append(Sigmoid(f"dec{i}_act"))
            else:
                dec_layers += [BatchNorm(f"dec{i}_norm", cout_d), LeakyReLU(f"dec{i}_act", slope)]
        self.encoder = Sequential(enc_layers)
        self.decoder = Sequential(dec_layers)
        super().__init__(enc_layers + dec_layers)
        rng = _seeded_rng(seed)
        for module in self.modules():
            module.init_params(rng, slope)

    def spec(self):
        return {"model_kind": "autoencoder", "config": asdict(self.config), "seed": self.seed}


def build_autoencoder(config: AutoencoderConfig, seed: int = 0) -> Autoencoder:
    return Autoencoder(config, seed)


def encode(model: Autoencoder, frames: np.ndarray) -> np.ndarray:
    """Eval-mode encoder pass; accepts one frame (H, W, C) or a batch."""
    return _predict_items(model.encoder, frames, 3)


def decode(model: Autoencoder, fmaps: np.ndarray) -> np.ndarray:
    """Eval-mode decoder pass; accepts one map (h, w, c) or a batch."""
    expected = model.config.bottleneck_shape
    if tuple(fmaps.shape[-3:]) != expected:
        raise ShapeError(f"feature map shape {fmaps.shape} does not end in bottleneck {expected}")
    return _predict_items(model.decoder, fmaps, 3)


def train_autoencoder(
    model: Autoencoder,
    train_frames: np.ndarray,
    val_frames: np.ndarray | None = None,
    schedule: TrainSchedule | None = None,
    optimizer: Optimizer | None = None,
) -> TrainRun:
    """Train on (frame, same frame) pairs; returns the run with the
    best-validation parameters restored into the model."""
    return _fit_scored(model, train_frames, train_frames, val_frames, val_frames, schedule, optimizer)


def encode_dataset(model: Autoencoder, sequences: np.ndarray) -> np.ndarray:
    """Encode a (N, T, H, W, C) stack into latent maps (N, T, h, w, c)."""
    n, t = sequences.shape[:2]
    flat = sequences.reshape(n * t, *sequences.shape[2:])
    maps = encode(model, flat)
    return maps.reshape(n, t, *maps.shape[1:])


def reconstruct(model: Autoencoder, frames: np.ndarray) -> np.ndarray:
    return predict_batched(model, frames)


def _build_from_spec(spec: dict) -> Autoencoder:
    return Autoencoder(AutoencoderConfig(**spec["config"]), spec["seed"])


register_model_kind("autoencoder", _build_from_spec)
