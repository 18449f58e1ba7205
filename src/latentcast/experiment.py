"""Pipeline orchestration: the stage-1 and stage-2 training functions, grid
search, K-fold validation, the three-stage run, the pixel-space baseline,
inference benchmarking and report emission."""

from __future__ import annotations

import itertools
import json
import math
import os
import platform
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
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
from .errors import ConfigError, FoldError, GridError, LeakageError, _check_int
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
from .training import TrainRun, TrainSchedule, evaluate_loss

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

    Each fold is windowed once, and every rotation trains the one seeded
    build, restored to its initial state, on the other folds' windows in
    fold order: the same losses as a fresh ``fit_predictor`` per rotation."""
    n = latents.shape[0]
    if k_folds < 2:
        raise FoldError(f"need at least 2 folds, got {k_folds}")
    if k_folds > n:
        raise FoldError(f"{k_folds} folds over {n} sequences")
    rng = np.random.default_rng(seed)
    folds = [window_dataset(latents[f], config.window)[:2]
             for f in np.array_split(rng.permutation(n), k_folds)]
    model = build_seq_model(config, latents.shape[2:], seed)
    initial = model.snapshot()
    losses = []
    for i, (va_in, va_tg) in enumerate(folds):
        rest = folds[:i] + folds[i + 1 :]
        tr_in, tr_tg = rest[0] if len(rest) == 1 else map(np.concatenate, zip(*rest))
        model.restore(initial)
        losses.append(train_seq_model(model, tr_in, tr_tg, va_in, va_tg, schedule).final_val_loss)
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
    model, _ = fit_autoencoder(config, seed, train, val, schedule)
    # selection uses validation MSE regardless of the training loss
    val_frames = _flat_frames(val)
    return values, evaluate_loss(model, val_frames, val_frames, "mse")


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
    data, the grid carries only the searched axes."""
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

    def to_dict(self) -> dict:
        return {**asdict(self), "stage2_s": self.stage2_s,
                "stage1_plus_3_s": self.stage1_plus_3_s, "total_s": self.total_s}


@dataclass
class PipelineResult:
    config: dict
    seed: int
    split: DatasetSplit
    seq_run: TrainRun
    prediction: MetricReport
    timing: PipelineTiming
    n_predictions: int
    ae_run: TrainRun | None = None
    ae_test: MetricReport | None = None
    latent_kl: float | None = None
    latent_kl_dropped_units: int = 0

    def to_dict(self) -> dict:
        metrics = {
            "mae": self.prediction.mae,
            "mse": self.prediction.mse,
            "ssim": self.prediction.ssim_mean,
            "kl": self.latent_kl,
        }
        return {
            "config": self.config,
            "seed": self.seed,
            "split": {
                "train": len(self.split.train_ids),
                "val": len(self.split.val_ids),
                "test": len(self.split.test_ids),
                "seed": self.split.seed,
            },
            "metrics": metrics,
            "n_predictions": self.n_predictions,
            "seq_run": self.seq_run.to_dict(),
            "ae_run": self.ae_run.to_dict() if self.ae_run else None,
            "ae_test": self.ae_test.to_dict() if self.ae_test else None,
            "intervals": self.prediction.intervals.to_dict() if self.prediction.intervals else None,
            "ssim_scores": self.prediction.ssim_scores,
            "timing": self.timing.to_dict(),
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


def _partition(
    dataset: VideoDataset,
    test_fraction: float,
    val_fraction: float,
    seed: int,
    split_seed: int | None,
) -> tuple[DatasetSplit, IdTracker, np.ndarray, np.ndarray | None, np.ndarray]:
    """Split by sequence (``split_seed``, else ``seed``); returns the split,
    its test-id tracker and the train, validation (None when empty) and test
    sequences."""
    split = split_sequences(
        dataset.ids, test_fraction, val_fraction, seed if split_seed is None else split_seed
    )
    val = dataset.select(split.val_ids).data if split.val_ids else None
    return (split, IdTracker(split.test_ids), dataset.select(split.train_ids).data, val,
            dataset.select(split.test_ids).data)


def forecast(model: SeqPredictor, sequences: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Stage-2 test: window the (N, T, ...) sequences and predict each
    window's next frame in one pass, scored by the model's loss. Returns the
    loss, the predictions and the targets, both (N * (T - window), ...)."""
    inputs, targets, _ = window_dataset(sequences, model.config.window)
    pred = predict_next(model, inputs)
    return loss(model.config.loss, pred, targets), pred, targets


def _test_stage(
    autoencoder: Autoencoder, model: SeqPredictor, test: np.ndarray, timing: PipelineTiming
) -> tuple[float, float, int, np.ndarray, np.ndarray, np.ndarray]:
    """Stages 1-3 on the (N, T, H, W, C) test sequences: encode, latent KL,
    ``forecast``, decode. Adds to the encode, predict and decode timings;
    returns the stage-2 test loss, the KL and its dropped units, the
    predicted frames, the truth frames they are scored against and the
    test latents."""
    t0 = time.perf_counter()
    latents = encode_dataset(autoencoder, test)
    timing.stage1_encode_s += time.perf_counter() - t0
    latent_kl, dropped = safe_latent_kl(latents)

    t0 = time.perf_counter()
    test_loss, pred_latents, _ = forecast(model, latents)
    timing.stage2_predict_s += time.perf_counter() - t0

    t0 = time.perf_counter()
    pred = decode(autoencoder, pred_latents.astype(np.float32, copy=False))
    timing.stage3_decode_s += time.perf_counter() - t0
    truth = _flat_frames(test[:, model.config.window :])
    return test_loss, latent_kl, dropped, pred, truth, latents


def _stage2(
    seq_config: SeqModelConfig,
    seed: int,
    schedule: TrainSchedule | None,
    split: DatasetSplit,
    tracker: IdTracker,
    role: str,
    train: np.ndarray,
    val: np.ndarray | None,
    timing: PipelineTiming,
) -> tuple[SeqPredictor, TrainRun]:
    """Train the predictor on the train and validation sequences after
    registering their ids; fills the stage-2 training time."""
    tracker.use(split.train_ids, f"{role}-train")
    if val is not None:
        tracker.use(split.val_ids, f"{role}-val")
    t0 = time.perf_counter()
    model, seq_run = fit_predictor(seq_config, seed, train, val, schedule)
    timing.stage2_train_s = time.perf_counter() - t0
    return model, seq_run


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
    split, tracker, train, val, test = _partition(
        dataset, test_fraction, val_fraction, seed, split_seed
    )
    timing = PipelineTiming()

    tracker.use(split.train_ids, "stage1-train")
    if val is not None:
        tracker.use(split.val_ids, "stage1-val")
    t0 = time.perf_counter()
    autoencoder, ae_run = fit_autoencoder(ae_config, seed, train, val, ae_schedule)
    timing.stage1_train_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    lat_train = encode_dataset(autoencoder, train)
    lat_val = encode_dataset(autoencoder, val) if val is not None else None
    timing.stage1_encode_s = time.perf_counter() - t0

    model, seq_run = _stage2(
        seq_config, seed, seq_schedule, split, tracker, "stage2", lat_train, lat_val, timing
    )
    seq_run.final_test_loss, latent_kl, dropped, pred_frames, truth, latents = _test_stage(
        autoencoder, model, test, timing
    )
    prediction = score_frames(pred_frames, truth)
    expected = len(split.test_ids) * (dataset.data.shape[1] - seq_config.window)
    assert len(pred_frames) == expected, "prediction count must be n_test * (T - window)"

    recon = decode(autoencoder, _flat_frames(latents))  # the test frames are encoded once
    ae_test = score_frames(recon, _flat_frames(test), with_intervals=False)
    ae_run.final_test_loss = ae_test.mse

    return PipelineResult(
        config={"autoencoder": asdict(ae_config), "sequence_model": asdict(seq_config)},
        seed=seed,
        split=split,
        seq_run=seq_run,
        prediction=prediction,
        timing=timing,
        n_predictions=len(pred_frames),
        ae_run=ae_run,
        ae_test=ae_test,
        latent_kl=latent_kl,
        latent_kl_dropped_units=dropped,
    )


def run_baseline(
    dataset: VideoDataset,
    seq_config: SeqModelConfig,
    seed: int = 0,
    seq_schedule: TrainSchedule | None = None,
    test_fraction: float = 0.2,
    val_fraction: float = 0.2,
    split_seed: int | None = None,
) -> PipelineResult:
    """Same predictor trained directly on raw frames (sigmoid output head),
    scored with the same metric suite."""
    seq_config = replace(seq_config, output_activation="sigmoid")
    split, tracker, train, val, test = _partition(
        dataset, test_fraction, val_fraction, seed, split_seed
    )
    timing = PipelineTiming()
    model, seq_run = _stage2(
        seq_config, seed, seq_schedule, split, tracker, "baseline", train, val, timing
    )
    t0 = time.perf_counter()
    seq_run.final_test_loss, pred_frames, truth = forecast(model, test)
    timing.stage2_predict_s = time.perf_counter() - t0
    return PipelineResult(
        config={"autoencoder": None, "sequence_model": asdict(seq_config)},
        seed=seed,
        split=split,
        seq_run=seq_run,
        prediction=score_frames(pred_frames, truth),
        timing=timing,
        n_predictions=len(pred_frames),
    )


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
    """Bar chart of the four interval counts of an ``IntervalReport.to_dict()``
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
    ``IntervalReport.to_dict()``. Returns the document."""
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
