"""Pipeline orchestration: the stage-1 and stage-2 training functions, grid
search, K-fold validation, the three-stage run and its test stage, inference
benchmarking and report emission."""

from __future__ import annotations

import itertools
import json
import math
import os
import platform
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .autoencoder import (
    Autoencoder,
    AutoencoderConfig,
    build_autoencoder,
    decode,
    encode_dataset,
    train_autoencoder,
)
from .dataio import DatasetSplit, VideoDataset, split_sequences
from .errors import (ConfigError, FoldError, GridError, InsufficientDataError, LeakageError,
                     _check_int, _seeded_rng)
from .metrics import LatentStats, MetricReport, kl_gauss, latent_stats, score_frames
from .nn.losses import loss
from .nn.network import Model
from .seqmodels import (
    LAYERED_KINDS,
    SeqModelConfig,
    SeqModelKind,
    SeqPredictor,
    build_seq_model,
    predict_next,
    train_seq_model,
    window_dataset,
)
from .training import TrainRun, TrainSchedule, evaluate_loss, fit

class IdTracker:
    """Guards test-set hygiene: any test id registered for a training or
    selection role raises immediately."""

    def __init__(self, test_ids: list[str]):
        self.test_ids = set(test_ids)
        self.log: list[tuple[str, int]] = []

    def use(self, ids: list[str], role: str) -> None:
        leaked = self.test_ids.intersection(ids)
        if leaked:
            raise LeakageError(
                f"test sequences {sorted(leaked)[:5]} reached stage {role!r}"
            )
        self.log.append((role, len(ids)))


# ---------------------------------------------------------------------------
# Grid search
# ---------------------------------------------------------------------------


def grid_enumerate(grid: dict[str, list], kind: SeqModelKind | None = None) -> list[dict]:
    """Full cartesian product of the grid axes in lexicographic axis order;
    the hidden-layer axis is dropped for kinds that have no depth knob."""
    axes = dict(grid)
    if kind is not None and SeqModelKind(kind) not in LAYERED_KINDS:
        axes.pop("hidden_layers", None)
    for name, values in axes.items():
        if not isinstance(values, list) or not values:
            raise GridError(f"grid axis {name!r} must be a non-empty list, got {values!r}")
    names = sorted(axes)
    return [dict(zip(names, combo)) for combo in itertools.product(*(axes[n] for n in names))]


def _map(fn, tasks: list, jobs: int) -> list:
    """``fn`` over ``tasks`` in task order, in a pool of at most ``jobs``
    processes, and no more than there are tasks or cores, when that is
    more than one."""
    _check_int("jobs", jobs)
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def _flat_frames(data: np.ndarray) -> np.ndarray:
    return data.reshape(-1, *data.shape[2:])


def fit_autoencoder(
    config: AutoencoderConfig,
    seed: int,
    train: np.ndarray,
    val: np.ndarray | None,
    schedule: TrainSchedule | None,
) -> tuple[Autoencoder, TrainRun]:
    """Stage 1: build the autoencoder and train it on the frames of the
    (N, T, H, W, C) train and validation sequences."""
    model = build_autoencoder(config, seed)
    val_frames = _flat_frames(val) if val is not None else None
    return model, train_autoencoder(model, _flat_frames(train), val_frames, schedule)


def fit_predictor(
    config: SeqModelConfig,
    seed: int,
    train: np.ndarray,
    val: np.ndarray | None,
    schedule: TrainSchedule | None,
) -> tuple[SeqPredictor, TrainRun]:
    """Stage 2: window the (N, T, h, w, c) train and validation sequences,
    build the predictor and train it."""
    tr_in, tr_tg, _ = window_dataset(train, config.window)
    va_in = va_tg = None
    if val is not None:
        va_in, va_tg, _ = window_dataset(val, config.window)
    model = build_seq_model(config, train.shape[2:], seed)
    return model, train_seq_model(model, tr_in, tr_tg, va_in, va_tg, schedule)


@dataclass
class FoldStats:
    losses: list[float]
    mean: float
    std: float


def fold_stats(losses: list[float]) -> FoldStats:
    arr = np.asarray(losses, dtype=np.float64)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return FoldStats(losses=[float(v) for v in losses], mean=float(arr.mean()), std=std)


def kfold_validate(
    config: SeqModelConfig,
    latents: np.ndarray,
    k_folds: int = 5,
    seed: int = 0,
    schedule: TrainSchedule | None = None,
) -> FoldStats:
    """K train/validation rotations split by sequence, never by frame; each
    sequence validates exactly once. Reports mean +/- sample std.

    Each fold is windowed once, and every rotation ``fit``s the one seeded
    build, restored to its initial state, on the other folds' windows in
    fold order: the same losses as a fresh ``fit_predictor`` per rotation,
    without scoring the training windows, which selection never reads."""
    n = latents.shape[0]
    if k_folds < 2:
        raise FoldError(f"need at least 2 folds, got {k_folds}")
    if k_folds > n:
        raise FoldError(f"{k_folds} folds over {n} sequences")
    rng = _seeded_rng(seed)
    folds = [window_dataset(latents[f], config.window)[:2]
             for f in np.array_split(rng.permutation(n), k_folds)]
    model = build_seq_model(config, latents.shape[2:], seed)
    initial = model.snapshot()
    losses = []
    for i, (va_in, va_tg) in enumerate(folds):
        rest = folds[:i] + folds[i + 1 :]
        tr_in, tr_tg = rest[0] if len(rest) == 1 else map(np.concatenate, zip(*rest))
        model.restore(initial)
        losses.append(fit(model, tr_in, tr_tg, va_in, va_tg, schedule).final_val_loss)
    return fold_stats(losses)


def _grid_configs(cls, combos: list[dict], **fixed) -> list:
    """One ``cls`` config per grid point, all built before anything trains,
    so an unknown axis or an invalid value fails the search up front."""
    axes = {f.name for f in fields(cls)} - fixed.keys()
    unknown = sorted({name for values in combos for name in values} - axes)
    if unknown:
        raise GridError(f"unknown grid axes {unknown}; searchable axes are {sorted(axes)}")
    return [cls(**values, **fixed) for values in combos]


def _eval_seq_config(args) -> tuple[dict, FoldStats]:
    values, config, latents, k_folds, seed, schedule = args
    return values, kfold_validate(config, latents, k_folds, seed, schedule)


def grid_search_seq(
    grid: dict[str, list],
    kind: SeqModelKind,
    latents: np.ndarray,
    k_folds: int = 5,
    seed: int = 0,
    schedule: TrainSchedule | None = None,
    jobs: int = 1,
) -> list[tuple[dict, FoldStats]]:
    """Evaluate every grid point by K-fold validation loss; result sorted
    ascending by mean fold loss (the selection criterion)."""
    combos = grid_enumerate(grid, kind)
    configs = _grid_configs(SeqModelConfig, combos, kind=kind)
    tasks = [(v, c, latents, k_folds, seed, schedule) for v, c in zip(combos, configs)]
    return sorted(_map(_eval_seq_config, tasks, jobs), key=lambda cs: cs[1].mean)


def _eval_ae_config(args) -> tuple[dict, float]:
    values, config, train, val, seed, schedule = args
    model, tr, va = build_autoencoder(config, seed), _flat_frames(train), _flat_frames(val)
    fit(model, tr, tr, va, va, schedule)
    return values, evaluate_loss(model, va, va, "mse")  # validation MSE, whatever the loss


def grid_search_ae(
    grid: dict[str, list],
    train: np.ndarray,
    val: np.ndarray,
    seed: int = 0,
    schedule: TrainSchedule | None = None,
    jobs: int = 1,
) -> list[tuple[dict, float]]:
    """Autoencoder grid search over (N, T, H, W, C) train and validation
    sequences, ranked by validation MSE; frame geometry comes from the
    data, the grid carries only the searched axes. Each point is ``fit``
    without scoring its training frames: the same MSE as ``fit_autoencoder``
    followed by ``evaluate_loss`` on the validation frames."""
    if len(val) == 0:
        raise InsufficientDataError("autoencoder grid search needs validation sequences")
    combos = grid_enumerate(grid)
    configs = _grid_configs(AutoencoderConfig, combos, input_size=train.shape[2],
                            input_channels=train.shape[4])
    tasks = [(v, c, train, val, seed, schedule) for v, c in zip(combos, configs)]
    return sorted(_map(_eval_ae_config, tasks, jobs), key=lambda cs: cs[1])


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------


@dataclass
class PipelineTiming:
    stage1_train_s: float = 0.0
    stage1_encode_s: float = 0.0
    stage2_train_s: float = 0.0
    stage2_predict_s: float = 0.0
    stage3_decode_s: float = 0.0

    @property
    def stage2_s(self) -> float:
        return self.stage2_train_s + self.stage2_predict_s

    @property
    def stage1_plus_3_s(self) -> float:
        return self.stage1_train_s + self.stage1_encode_s + self.stage3_decode_s

    @property
    def total_s(self) -> float:
        return self.stage2_s + self.stage1_plus_3_s


@dataclass
class PipelineResult:
    """One run of the test stage; ``to_dict`` is the run document that
    ``run_pipeline`` returns, ``latentcast predict`` writes and ``report``
    reads. ``split`` is None when the test sequences came without one."""

    config: dict
    seed: int
    split: DatasetSplit | None
    ae_run: TrainRun
    seq_run: TrainRun
    ae_test: MetricReport
    prediction: MetricReport
    latent_kl: float
    latent_kl_dropped_units: int
    n_predictions: int
    timing: PipelineTiming

    def to_dict(self) -> dict:
        prediction, split = asdict(self.prediction), self.split
        return {
            "config": self.config,
            "seed": self.seed,
            "split": None if split is None else {
                "train": len(split.train_ids),
                "val": len(split.val_ids),
                "test": len(split.test_ids),
                "seed": split.seed,
            },
            "metrics": {"mae": prediction["mae"], "mse": prediction["mse"],
                        "ssim": prediction["ssim_mean"], "kl": self.latent_kl},
            "n_predictions": self.n_predictions,
            "seq_run": asdict(self.seq_run),
            "ae_run": asdict(self.ae_run),
            "ae_test": asdict(self.ae_test),
            "intervals": prediction["intervals"],
            "ssim_scores": prediction["ssim_scores"],
            "timing": asdict(self.timing),
            "latent_kl_dropped_units": self.latent_kl_dropped_units,
        }


def safe_latent_kl(latents: np.ndarray) -> tuple[float, int]:
    """KL against N(0,1) over latent units, skipping constant (sigma = 0)
    units; returns (value, number of units skipped)."""
    stats = latent_stats(latents.reshape(-1, *latents.shape[2:]))
    alive = stats.sigma > 0
    dropped = int((~alive).sum())
    if not alive.any():
        return math.nan, dropped
    return kl_gauss(LatentStats(stats.mu[alive], stats.sigma[alive])), dropped


def forecast(model: SeqPredictor, sequences: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Stage-2 test: window the (N, T, ...) sequences and predict each
    window's next frame in one pass, scored by the model's loss. Returns the
    loss, the predictions and the targets, both (N * (T - window), ...)."""
    inputs, targets, _ = window_dataset(sequences, model.config.window)
    pred = predict_next(model, inputs)
    return loss(model.config.loss, pred, targets), pred, targets


def _test_stage(
    autoencoder: Autoencoder,
    ae_run: TrainRun,
    model: SeqPredictor,
    seq_run: TrainRun,
    split: DatasetSplit | None,
    test: np.ndarray,
    timing: PipelineTiming,
) -> tuple[PipelineResult, np.ndarray, np.ndarray]:
    """Stages 1-3 on the (N, T, H, W, C) test sequences: encode, latent KL,
    ``forecast``, decode. Scores the prediction and the autoencoder's
    reconstruction of the test frames, sets both runs' final test loss and
    adds to the encode, predict and decode timings. Returns the run, the
    predicted frames and the truth frames they are scored against."""
    t0 = time.perf_counter()
    latents = encode_dataset(autoencoder, test)
    timing.stage1_encode_s += time.perf_counter() - t0
    latent_kl, dropped = safe_latent_kl(latents)

    t0 = time.perf_counter()
    seq_run.final_test_loss, pred_latents, _ = forecast(model, latents)
    timing.stage2_predict_s += time.perf_counter() - t0

    t0 = time.perf_counter()
    pred = decode(autoencoder, pred_latents.astype(np.float32, copy=False))
    timing.stage3_decode_s += time.perf_counter() - t0
    truth = _flat_frames(test[:, model.config.window :])  # score_frames checks the shapes

    recon = decode(autoencoder, _flat_frames(latents))  # the test frames are encoded once
    ae_test = score_frames(recon, _flat_frames(test), with_intervals=False)
    ae_run.final_test_loss = ae_test.mse
    result = PipelineResult(
        config={"autoencoder": asdict(autoencoder.config),
                "sequence_model": asdict(model.config)},
        seed=model.seed,
        split=split,
        ae_run=ae_run,
        seq_run=seq_run,
        ae_test=ae_test,
        prediction=score_frames(pred, truth),
        latent_kl=latent_kl,
        latent_kl_dropped_units=dropped,
        n_predictions=len(pred),
        timing=timing,
    )
    return result, pred, truth


def run_pipeline(
    dataset: VideoDataset,
    ae_config: AutoencoderConfig,
    seq_config: SeqModelConfig,
    seed: int = 0,
    ae_schedule: TrainSchedule | None = None,
    seq_schedule: TrainSchedule | None = None,
    test_fraction: float = 0.2,
    val_fraction: float = 0.2,
    split_seed: int | None = None,
) -> PipelineResult:
    """Three stages end to end: train the autoencoder, train the
    predictor on latent windows, decode predicted test latents and score
    them against the ground-truth next frames.

    Test-partition sequences never reach a training or selection step; the
    id tracker raises on any violation. ``split_seed`` pins the partition
    independently of the model seed (model-comparison runs share one split).
    """
    split = split_sequences(
        dataset.ids, test_fraction, val_fraction, seed if split_seed is None else split_seed
    )
    IdTracker(split.test_ids).use(split.train_ids + split.val_ids, "training")
    train = dataset.select(split.train_ids).data
    val = dataset.select(split.val_ids).data if split.val_ids else None
    timing = PipelineTiming()

    t0 = time.perf_counter()
    autoencoder, ae_run = fit_autoencoder(ae_config, seed, train, val, ae_schedule)
    timing.stage1_train_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    lat_train = encode_dataset(autoencoder, train)
    lat_val = encode_dataset(autoencoder, val) if val is not None else None
    timing.stage1_encode_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    model, seq_run = fit_predictor(seq_config, seed, lat_train, lat_val, seq_schedule)
    timing.stage2_train_s = time.perf_counter() - t0

    test = dataset.select(split.test_ids).data
    return _test_stage(autoencoder, ae_run, model, seq_run, split, test, timing)[0]


# ---------------------------------------------------------------------------
# Benchmarking
# ---------------------------------------------------------------------------


@dataclass
class BenchReport:
    per_iteration_median_s: float
    per_iteration_mean_s: float
    iterations: int
    warmup: int
    hardware: str


def hardware_descriptor() -> str:
    return f"{platform.machine()} {platform.processor() or 'cpu'} ({platform.system()})"


def benchmark_inference(
    model: Model,
    inputs: np.ndarray,
    warmup: int = 10,
    iters: int = 100,
) -> BenchReport:
    """Wall-clock time per single-window eval-mode prediction, cycling over
    the provided windows; warmup iterations excluded from statistics."""
    _check_int("iters", iters, 30)
    _check_int("warmup", warmup, 5)
    if inputs.ndim == 4:
        inputs = inputs[None]
    singles = [np.ascontiguousarray(inputs[i : i + 1]) for i in range(len(inputs))]
    for i in range(warmup):
        model.forward(singles[i % len(singles)], train=False)
    times = np.empty(iters, dtype=np.float64)
    for i in range(iters):
        x = singles[i % len(singles)]
        t0 = time.perf_counter()
        model.forward(x, train=False)
        times[i] = time.perf_counter() - t0
    return BenchReport(
        per_iteration_median_s=float(np.median(times)),
        per_iteration_mean_s=float(times.mean()),
        iterations=iters,
        warmup=warmup,
        hardware=hardware_descriptor(),
    )


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def interval_histogram_svg(intervals: dict, width: int = 480, height: int = 300) -> str:
    """Bar chart of the four interval counts of an ``asdict(IntervalReport)``
    as a standalone SVG document."""
    margin = 40
    bar_zone = width - 2 * margin
    buckets = intervals["buckets"]
    bar_w = bar_zone // len(buckets)
    peak = max(b["count"] for b in buckets) or 1
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{width // 2}" y="18" text-anchor="middle" font-size="13">'
        f"SSIM intervals (range width {intervals['range_width']:.4f})</text>",
    ]
    for i, b in enumerate(buckets):
        bh = int((height - 2 * margin) * b["count"] / peak)
        x = margin + i * bar_w
        y = height - margin - bh
        parts.append(
            f'<rect x="{x + 4}" y="{y}" width="{bar_w - 8}" height="{bh}" fill="#4878a8"/>'
        )
        parts.append(
            f'<text x="{x + bar_w // 2}" y="{height - margin + 14}" text-anchor="middle" '
            f'font-size="11">{b["label"]}</text>'
        )
        parts.append(
            f'<text x="{x + bar_w // 2}" y="{max(y - 4, 12)}" text-anchor="middle" '
            f'font-size="11">{b["count"]}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def emit_report(
    runs: list[dict],
    out_path: str | Path,
    intervals: dict | None = None,
    svg_path: str | Path | None = None,
) -> dict:
    """Write the consolidated JSON report; rows of the comparison table are
    sorted by test SSIM descending. ``intervals`` is an
    ``asdict(IntervalReport)``. Returns the document."""
    if not runs:
        raise ConfigError("emit_report needs at least one run")

    def _ssim_of(run: dict) -> float:
        value = run.get("metrics", {}).get("ssim")
        return value if value is not None else -math.inf

    comparison = [
        {
            "model": (run.get("config", {}).get("sequence_model") or {}).get("kind", "?"),
            "seed": run.get("seed"),
            "test_ssim": run.get("metrics", {}).get("ssim"),
            "test_mse": run.get("metrics", {}).get("mse"),
            "test_mae": run.get("metrics", {}).get("mae"),
            "kl": run.get("metrics", {}).get("kl"),
        }
        for run in sorted(runs, key=_ssim_of, reverse=True)
    ]
    doc: dict = {"runs": runs, "comparison": comparison}
    if intervals is not None:
        doc["intervals"] = intervals
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(doc, indent=2))
    if svg_path is not None and intervals is not None:
        Path(svg_path).write_text(interval_histogram_svg(intervals))
    return doc
