"""Stage 2: spatiotemporal predictors mapping a window of k feature maps to
the next feature map.

Six kinds: vector RNN / LSTM / GRU (flatten, project to the hidden size,
run stacked cells, project back), ConvLSTM (stacked convolutional LSTM
cells plus a 1x1 head), 3D-CNN (two depth-collapsing volume convolutions)
and CRNN (shared per-frame conv features into a convolutional Elman
recurrence). Output heads are linear for latent targets; a predictor of
pixels takes a sigmoid head instead.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, ShapeError, WindowError, _check_int, _check_rate, _seeded_rng
from .nn.cells import ConvElmanCell, ConvLSTMCell, ElmanCell, GRUCell, LSTMCell, Recurrence
from .nn.layers import Conv2D, Conv3D, Dense, Layer, LeakyReLU, Reshape, Sigmoid
from .nn.losses import LossKind
from .nn.network import Sequential, register_model_kind
from .nn.optim import Optimizer, OptimizerKind
from .training import TrainRun, TrainSchedule, _fit_scored, _predict_items


class SeqModelKind(str, Enum):
    RNN = "rnn"
    LSTM = "lstm"
    GRU = "gru"
    CNN3D = "cnn3d"
    CONVLSTM = "convlstm"
    CRNN = "crnn"


# kinds whose depth is controlled by the hidden-layer axis
LAYERED_KINDS = {SeqModelKind.RNN, SeqModelKind.LSTM, SeqModelKind.GRU, SeqModelKind.CONVLSTM}


@dataclass
class SeqModelConfig:
    kind: SeqModelKind
    hidden_size: int = 128
    hidden_layers: int | None = None
    loss: LossKind = LossKind.MSE
    optimizer: OptimizerKind = OptimizerKind.ADAM
    learning_rate: float = 0.001
    window: int = 5
    leaky_slope: float = 0.01
    output_activation: str = "linear"

    def __post_init__(self) -> None:
        try:
            self.kind = SeqModelKind(self.kind)
            self.loss = LossKind(self.loss)
            self.optimizer = OptimizerKind(self.optimizer)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.kind in LAYERED_KINDS:
            if self.hidden_layers is None:
                raise ConfigError(f"{self.kind.value} requires hidden_layers")
            _check_int("hidden_layers", self.hidden_layers)
        elif self.hidden_layers is not None:
            raise ConfigError(f"{self.kind.value} does not take hidden_layers")
        _check_int("hidden_size", self.hidden_size)
        _check_int("window", self.window)
        _check_rate("learning_rate", self.learning_rate)
        if self.kind is SeqModelKind.CNN3D and self.window < 3:
            raise ConfigError("3D-CNN needs a window of at least 3 frames")
        if self.output_activation not in ("linear", "sigmoid"):
            raise ConfigError(f"unknown output activation {self.output_activation!r}")


def make_windows(seq: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Sliding stride-1 windows over a (T, ...) sequence: inputs t..t+k-1
    predict target t+k, giving exactly T-k samples."""
    return window_dataset(seq[None], window)[:2]


def window_dataset(
    latents: np.ndarray, window: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``make_windows`` for every sequence of a (N, T, ...) stack, in one
    gather, plus the sequence index each sample came from (for
    sequence-level fold assignment)."""
    n, t = latents.shape[:2]
    if t <= window:
        raise WindowError(f"sequence length {t} yields no windows of size {window}")
    # both index arrays lead, so each gather is allocated in its final layout
    seqs, starts = np.arange(n)[:, None], np.arange(t - window)
    inputs = latents[seqs[..., None], starts[:, None] + np.arange(window)]
    return (
        inputs.reshape(n * (t - window), window, *latents.shape[2:]),
        latents[seqs, starts + window].reshape(n * (t - window), *latents.shape[2:]),
        np.repeat(np.arange(n, dtype=np.int64), t - window),
    )


class SeqPredictor(Sequential):
    """A predictor is a stack of layers run forward in order and backward in
    reverse; subclasses list the layers in ``_layers``, whose parameters are
    He-initialised in that order from ``seed``."""

    def __init__(self, config: SeqModelConfig, latent_shape: tuple[int, int, int], seed: int):
        self.config = config
        self.latent_shape = tuple(latent_shape)
        self.seed = seed
        layers = self._layers(config, *self.latent_shape)
        if config.output_activation == "sigmoid":
            layers.append(Sigmoid("out_act"))
        super().__init__(layers)
        rng = _seeded_rng(seed)
        for module in self.modules():
            module.init_params(rng, config.leaky_slope)

    def _layers(self, config: SeqModelConfig, h: int, w: int, c: int) -> list[Layer]:
        raise NotImplementedError

    def forward(self, x, train=True):
        if x.ndim != 5 or x.shape[1] != self.config.window or tuple(x.shape[2:]) != self.latent_shape:
            raise ShapeError(
                f"expected (batch, {self.config.window}, {', '.join(map(str, self.latent_shape))}), "
                f"got {x.shape}"
            )
        return super().forward(x, train)

    def spec(self) -> dict:
        return {
            "model_kind": "seq_predictor",
            "config": asdict(self.config),
            "latent_shape": list(self.latent_shape),
            "seed": self.seed,
        }


class VectorRecurrentPredictor(SeqPredictor):
    """RNN / LSTM / GRU on flattened maps: dense projection of every frame
    into the hidden size, stacked cells over the window, dense projection
    back."""

    _CELLS = {SeqModelKind.RNN: ElmanCell, SeqModelKind.LSTM: LSTMCell, SeqModelKind.GRU: GRUCell}

    def _layers(self, config, h, w, c):
        d, n = h * w * c, config.hidden_size
        cell_cls = self._CELLS[config.kind]
        return [
            Reshape("fold", (d,)),
            Dense("in_proj", d, n),
            Reshape("unfold", (config.window, n)),
            Recurrence("recurrence", [cell_cls(f"cell{i}", n, n)
                                      for i in range(config.hidden_layers)]),
            Dense("out_proj", n, d),
            Reshape("unflatten", (h, w, c)),
        ]


class ConvLSTMPredictor(SeqPredictor):
    """Stacked ConvLSTM cells (3x3 kernels, hidden maps shaped like the
    input) with a 1x1 convolution head on the last hidden map."""

    def _layers(self, config, h, w, c):
        ch = config.hidden_size
        cells = [ConvLSTMCell(f"cell{i}", c if i == 0 else ch, ch)
                 for i in range(config.hidden_layers)]
        return [Recurrence("recurrence", cells), Conv2D("head", ch, c, kernel=1, stride=1, padding=0)]


class CNN3DPredictor(SeqPredictor):
    """Two volume convolutions collapse the window depth to one map: the
    first is 3x3x3 (valid over depth), the second spans whatever depth
    remains; leaky ReLU sits between."""

    def _layers(self, config, h, w, c):
        ch = config.hidden_size
        return [
            Conv3D("blk0_conv", c, ch, kernel=(3, 3, 3), padding=(0, 1, 1)),
            LeakyReLU("blk0_act", config.leaky_slope),
            Conv3D("blk1_conv", ch, c, kernel=(config.window - 2, 3, 3), padding=(0, 1, 1)),
            Reshape("squeeze", (h, w, c)),
        ]


class CRNNPredictor(SeqPredictor):
    """Shared 3x3 conv feature extractor on every frame feeding a
    convolutional Elman recurrence, then a 1x1 head."""

    def _layers(self, config, h, w, c):
        ch = config.hidden_size
        return [
            Reshape("fold", (h, w, c)),
            Conv2D("feat_conv", c, ch, kernel=3, stride=1, padding=1),
            LeakyReLU("feat_act", config.leaky_slope),
            Reshape("unfold", (config.window, h, w, ch)),
            Recurrence("recurrence", [ConvElmanCell("rec", ch, ch)]),
            Conv2D("head", ch, c, kernel=1, stride=1, padding=0),
        ]


_PREDICTORS = {
    SeqModelKind.RNN: VectorRecurrentPredictor,
    SeqModelKind.LSTM: VectorRecurrentPredictor,
    SeqModelKind.GRU: VectorRecurrentPredictor,
    SeqModelKind.CONVLSTM: ConvLSTMPredictor,
    SeqModelKind.CNN3D: CNN3DPredictor,
    SeqModelKind.CRNN: CRNNPredictor,
}


def build_seq_model(
    config: SeqModelConfig, latent_shape: tuple[int, int, int], seed: int = 0
) -> SeqPredictor:
    if len(latent_shape) != 3:
        raise ConfigError(f"latent shape must be (h, w, c), got {latent_shape}")
    for name, extent in zip("hwc", latent_shape):
        _check_int(f"latent {name}", extent)
    return _PREDICTORS[config.kind](config, latent_shape, seed)


def predict_next(model: SeqPredictor, inputs: np.ndarray) -> np.ndarray:
    """Eval-mode prediction; accepts one window (k, h, w, c) or a batch."""
    return _predict_items(model, inputs, 4)


def train_seq_model(
    model: SeqPredictor,
    inputs: np.ndarray,
    targets: np.ndarray,
    val_inputs: np.ndarray | None = None,
    val_targets: np.ndarray | None = None,
    schedule: TrainSchedule | None = None,
    optimizer: Optimizer | None = None,
) -> TrainRun:
    if len(inputs) == 0:
        raise WindowError("no training samples")
    return _fit_scored(model, inputs, targets, val_inputs, val_targets, schedule, optimizer)


def _build_from_spec(spec: dict) -> SeqPredictor:
    return build_seq_model(
        SeqModelConfig(**spec["config"]), tuple(spec["latent_shape"]), spec["seed"]
    )


register_model_kind("seq_predictor", _build_from_spec)
