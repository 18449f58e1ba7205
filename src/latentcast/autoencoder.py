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

from .errors import ConfigError, ShapeError
from .nn.layers import BatchNorm, Conv2D, ConvTranspose2D, LeakyReLU, Sigmoid
from .nn.losses import LossKind
from .nn.network import Model, Sequential, register_model_kind
from .nn.optim import Optimizer, OptimizerKind
from .training import TrainRun, TrainSchedule, fit, predict_batched

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
        self.loss = LossKind(self.loss)
        self.optimizer = OptimizerKind(self.optimizer)
        if not self.dims:
            raise ConfigError("dims must list at least one channel count")
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


class Autoencoder(Model):
    def __init__(self, config: AutoencoderConfig, seed: int):
        super().__init__()
        self.config = config
        self.seed = seed
        rng = np.random.default_rng(seed)
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
        for module in self.encoder.modules() + self.decoder.modules():
            self.add_module(module)
            module.init_params(rng, slope)

    def forward(self, x, train=True):
        return self.decoder.forward(self.encoder.forward(x, train), train)

    def backward(self, dy):
        return self.encoder.backward(self.decoder.backward(dy))

    def spec(self):
        return {"model_kind": "autoencoder", "config": asdict(self.config), "seed": self.seed}


def build_autoencoder(config: AutoencoderConfig, seed: int = 0) -> Autoencoder:
    return Autoencoder(config, seed)


def _as_batch(frames: np.ndarray, expected_channels: int) -> tuple[np.ndarray, bool]:
    if frames.ndim == 3:
        frames = frames[None]
        single = True
    elif frames.ndim == 4:
        single = False
    else:
        raise ShapeError(f"expected (H, W, C) or (N, H, W, C), got shape {frames.shape}")
    if frames.shape[-1] != expected_channels:
        raise ShapeError(
            f"frame has {frames.shape[-1]} channels, model expects {expected_channels}"
        )
    return frames, single


def encode(model: Autoencoder, frames: np.ndarray, batch_size: int = 64) -> np.ndarray:
    """Eval-mode encoder pass; accepts one frame (H, W, C) or a batch."""
    batch, single = _as_batch(frames, model.config.input_channels)
    maps = predict_batched(model.encoder, batch, batch_size)
    return maps[0] if single else maps


def decode(model: Autoencoder, fmaps: np.ndarray, batch_size: int = 64) -> np.ndarray:
    """Eval-mode decoder pass; accepts one map (h, w, c) or a batch."""
    expected = model.config.bottleneck_shape
    if fmaps.ndim == 3:
        fmaps = fmaps[None]
        single = True
    elif fmaps.ndim == 4:
        single = False
    else:
        raise ShapeError(f"expected (h, w, c) or (N, h, w, c), got shape {fmaps.shape}")
    if tuple(fmaps.shape[1:]) != expected:
        raise ShapeError(f"feature map shape {fmaps.shape[1:]} != bottleneck {expected}")
    frames = predict_batched(model.decoder, fmaps, batch_size)
    return frames[0] if single else frames


def train_autoencoder(
    model: Autoencoder,
    train_frames: np.ndarray,
    val_frames: np.ndarray | None = None,
    schedule: TrainSchedule | None = None,
    optimizer: Optimizer | None = None,
) -> TrainRun:
    """Train on (frame, same frame) pairs; returns the run with the
    best-validation parameters restored into the model."""
    return fit(model, train_frames, train_frames, val_frames, val_frames, schedule, optimizer)


def encode_dataset(model: Autoencoder, sequences: np.ndarray, batch_size: int = 64) -> np.ndarray:
    """Encode a (N, T, H, W, C) stack into latent maps (N, T, h, w, c)."""
    n, t = sequences.shape[:2]
    flat = sequences.reshape(n * t, *sequences.shape[2:])
    maps = encode(model, flat, batch_size)
    return maps.reshape(n, t, *maps.shape[1:])


def reconstruct(model: Autoencoder, frames: np.ndarray, batch_size: int = 64) -> np.ndarray:
    return predict_batched(model, frames, batch_size)


def _build_from_spec(spec: dict) -> Autoencoder:
    return Autoencoder(AutoencoderConfig(**spec["config"]), spec["seed"])


register_model_kind("autoencoder", _build_from_spec)
