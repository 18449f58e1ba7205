"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data error, 3 training abort.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .autoencoder import AutoencoderConfig, encode_dataset
from .dataio import (
    DatasetSplit,
    FrameSequence,
    VideoDataset,
    _json_object,
    load_frame_directory,
    load_sequences_npy,
    parse_array_file,
    split_sequences,
    write_array_file,
)
from .errors import DataError, FormatError, LatentcastError, TrainingAbortError, _check_int
from .experiment import (
    PipelineTiming,
    _test_stage,
    benchmark_inference,
    emit_report,
    fit_autoencoder,
    fit_predictor,
    grid_search_ae,
    grid_search_seq,
)
from .metrics import score_frames
from .nn.network import Model, load_checkpoint, save_checkpoint
from .preprocess import PreprocessSpec, preprocess_dataset, stratified_subset, verify_continuity
from .seqmodels import SeqModelConfig, SeqModelKind, window_dataset
from .training import TrainSchedule


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _dims(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v]


def _schedule_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--patience", type=int, default=10)


def _schedule(args) -> TrainSchedule:
    return TrainSchedule(batch_size=args.batch_size, max_epochs=args.epochs,
                         patience=args.patience)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="latentcast", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[], help="assemble a dataset from npy or PNM frames")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=["npy", "pnm-dir"], required=True)
    p.add_argument("--channels", type=int, choices=[1, 3], default=1)
    p.add_argument("--time-axis", type=int, default=None)
    p.add_argument("--length", type=int, default=20, help="expected sequence length for axis detection")
    p.add_argument("--out", required=True)

    p = sub.add_parser("split", help="sequence-preserving train/val/test split")
    p.add_argument("--dataset", required=True)
    p.add_argument("--test", type=float, default=0.2)
    p.add_argument("--val", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("preprocess", help="standardize length/size, binarize, crop, subset")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--len", dest="length", type=int, default=20)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--binarize", action=argparse.BooleanOptionalAction, default=False)
    p.add_argument("--crop-borders", action="store_true")
    p.add_argument("--border-threshold", type=float, default=10 / 255)
    p.add_argument("--stratify", type=int, default=None, metavar="M")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--continuity-report", default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train-ae", help="train the frame autoencoder")
    p.add_argument("--dataset", required=True)
    p.add_argument("--dims", type=_dims, default=[64, 128, 256])
    p.add_argument("--loss", choices=["l1", "mse", "msle", "rmse"], default="l1")
    p.add_argument("--opt", choices=["adam", "rmsprop"], default="adam")
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split", default=None, help="split.json restricting training to its train/val ids")
    _schedule_args(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("extract", help="encode a dataset into latent maps")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train-seq", help="train a spatiotemporal predictor on latents")
    p.add_argument("--latents", required=True)
    p.add_argument("--kind", choices=[k.value for k in SeqModelKind], required=True)
    p.add_argument("--layers", type=int, default=None)
    p.add_argument("--hidden", type=int, default=128)
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--loss", choices=["l1", "mse", "msle", "rmse"], default="mse")
    p.add_argument("--opt", choices=["adam", "rmsprop"], default="adam")
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split", default=None)
    _schedule_args(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("predict", help="forecast and decode the next frames of test sequences")
    p.add_argument("--ae-ckpt", required=True)
    p.add_argument("--seq-ckpt", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", default=None, help="split.json whose test ids to forecast")
    p.add_argument("--out", required=True, help="directory for pred.npy, truth.npy, predict.json")

    p = sub.add_parser("gridsearch", help="grid search with K-fold validation")
    p.add_argument("--stage", choices=["ae", "seq"], required=True)
    p.add_argument("--grid", required=True, help="JSON object of axis name -> value list")
    p.add_argument("--dataset", required=True, help="frames for ae stage, latents for seq stage")
    p.add_argument("--kind", choices=[k.value for k in SeqModelKind], default=None)
    p.add_argument("--kfold", type=int, default=5)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split", default=None, help="split.json keeping its test ids out of selection")
    _schedule_args(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("bench", help="per-iteration inference latency of a checkpoint")
    p.add_argument("--ckpt", required=True)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--latents", default=None)
    src.add_argument("--frames", default=None)
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--warmup", type=int, default=10)
    p.add_argument("--out", default=None)

    p = sub.add_parser("evaluate", help="score predicted frames against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--intervals", action="store_true")
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", help="consolidate run JSON files into one report")
    p.add_argument("--runs", required=True, help="directory of per-run JSON files")
    p.add_argument("--out", required=True)
    p.add_argument("--svg", default=None)

    return parser


# ---------------------------------------------------------------------------
# command bodies
# ---------------------------------------------------------------------------


def _cmd_ingest(args) -> int:
    if args.format == "npy":
        ds = load_sequences_npy(args.input, time_axis=args.time_axis,
                                sequence_length=args.length)
    else:
        root = Path(args.input)
        suffix = ".pgm" if args.channels == 1 else ".ppm"
        if any(p.suffix.lower() == suffix for p in root.iterdir()):
            seq_dirs = [root]
        else:
            seq_dirs = sorted(p for p in root.iterdir() if p.is_dir())
        if not seq_dirs:
            raise FormatError(f"no frame directories under {root}")
        sequences = [load_frame_directory(d, args.channels) for d in seq_dirs]
        shapes = {s.frames.shape for s in sequences}
        if len(shapes) > 1:
            raise FormatError(f"sequences disagree on shape: {sorted(shapes)}")
        ds = VideoDataset(
            np.stack([s.frames for s in sequences]), [s.id for s in sequences]
        )
    ds.save(args.out)
    print(f"wrote {ds.data.shape} dataset to {args.out}")
    return 0


def _cmd_split(args) -> int:
    ds = VideoDataset.load(args.dataset)
    split = split_sequences(ds.ids, args.test, args.val, args.seed)
    Path(args.out).write_text(split.to_json())
    print(
        f"split {len(ds)} sequences -> {len(split.train_ids)} train / "
        f"{len(split.val_ids)} val / {len(split.test_ids)} test"
    )
    return 0


def _cmd_preprocess(args) -> int:
    ds = VideoDataset.load(args.input)
    if args.stratify is not None:
        labels = ds.labels or ["all"] * len(ds)
        keep = stratified_subset(list(zip(ds.ids, labels)), args.stratify, args.seed)
        ds = ds.select(keep)
    spec = PreprocessSpec(
        target_length=args.length,
        target_size=(args.size, args.size),
        binarize=args.binarize,
        crop_borders=args.crop_borders,
        border_threshold=args.border_threshold,
    )
    out = preprocess_dataset(ds, spec)
    out.save(args.out)
    if args.continuity_report:
        rows = [{"id": seq_id, **asdict(verify_continuity(FrameSequence(seq_id, frames)))}
                for seq_id, frames in zip(out.ids, out.data)]
        Path(args.continuity_report).write_text(json.dumps(rows, indent=2))
    print(f"wrote {out.data.shape} dataset to {args.out}")
    return 0


def _read_split(path: str | None) -> DatasetSplit | None:
    return None if path is None else DatasetSplit.from_json(Path(path).read_bytes())


def _select_split(
    ds: VideoDataset, split: DatasetSplit | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """The train and validation sequences of a dataset or latents file: the
    split's train/val ids, else every sequence and no validation."""
    if split is None:
        return ds.data, None
    val = ds.select(split.val_ids).data if split.val_ids else None
    return ds.select(split.train_ids).data, val


def _load_model(path: str, kind: str) -> Model:
    """The model of a checkpoint, which must hold a ``kind`` model
    (``autoencoder`` or ``seq_predictor``)."""
    model = load_checkpoint(path)[0]
    found = model.spec()["model_kind"]
    if found != kind:
        raise FormatError(f"{path} holds a {found} checkpoint, expected {kind}")
    return model


def _cmd_train_ae(args) -> int:
    train, val = _select_split(VideoDataset.load(args.dataset), _read_split(args.split))
    config = AutoencoderConfig(
        dims=args.dims,
        loss=args.loss,
        optimizer=args.opt,
        learning_rate=args.lr,
        input_channels=train.shape[4],
        input_size=train.shape[2],
    )
    model, run = fit_autoencoder(config, args.seed, train, val, _schedule(args))
    save_checkpoint(args.out, model, extra={"train_run": run.to_dict()})
    print(
        f"trained autoencoder: best epoch {run.best_epoch}, "
        f"train {run.final_train_loss:.6g}, val {run.final_val_loss:.6g}; saved to {args.out}"
    )
    return 0


def _cmd_extract(args) -> int:
    model = _load_model(args.ckpt, "autoencoder")
    ds = VideoDataset.load(args.dataset)
    latents = encode_dataset(model, ds.data)
    VideoDataset(latents, ds.ids, ds.labels).save(args.out)
    print(f"wrote latents {latents.shape} to {args.out}")
    return 0


def _cmd_train_seq(args) -> int:
    train, val = _select_split(VideoDataset.load(args.latents), _read_split(args.split))
    config = SeqModelConfig(
        kind=args.kind,
        hidden_size=args.hidden,
        hidden_layers=args.layers,
        loss=args.loss,
        optimizer=args.opt,
        learning_rate=args.lr,
        window=args.window,
    )
    model, run = fit_predictor(config, args.seed, train, val, _schedule(args))
    save_checkpoint(args.out, model, extra={"train_run": run.to_dict()})
    print(
        f"trained {args.kind}: best epoch {run.best_epoch}, "
        f"train {run.final_train_loss:.6g}, val {run.final_val_loss:.6g}; saved to {args.out}"
    )
    return 0


def _cmd_gridsearch(args) -> int:
    grid = _json_object(Path(args.grid).read_bytes(), "grid file", ())
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    schedule = _schedule(args)
    ds = VideoDataset.load(args.dataset)
    split = _read_split(args.split)
    if args.stage == "seq":
        if args.kind is None:
            raise FormatError("--kind is required for the seq stage")
        if split is not None:
            ds = ds.select(split.train_ids + split.val_ids)
        ranked = grid_search_seq(
            grid, SeqModelKind(args.kind), ds.data, args.kfold, args.seed, schedule, args.jobs
        )
        rows = [
            {"config": values, "fold_mean": fs.mean, "fold_std": fs.std, "fold_losses": fs.losses}
            for values, fs in ranked
        ]
    else:
        train, val = _select_split(ds, split or split_sequences(ds.ids, 0.2, 0.2, args.seed))
        if val is None:
            raise DataError("the validation partition is empty: --stage ae ranks configs on it")
        ranked = grid_search_ae(grid, train, val, args.seed, schedule, args.jobs)
        rows = [{"config": values, "val_mse": value} for values, value in ranked]
    (out_dir / "results.json").write_text(json.dumps(rows, indent=2))
    best = rows[0]
    print(f"evaluated {len(rows)} configs; best: {json.dumps(best)}")
    return 0


def _cmd_bench(args) -> int:
    model = _load_model(args.ckpt, "seq_predictor")
    values = VideoDataset.load(args.latents or args.frames).data
    inputs, _, _ = window_dataset(values[: min(8, len(values))], model.config.window)
    report = benchmark_inference(model, inputs, warmup=args.warmup, iters=args.iters)
    text = json.dumps(asdict(report), indent=2)
    if args.out:
        Path(args.out).write_text(text)
    print(text)
    return 0


def _cmd_predict(args) -> int:
    autoencoder = _load_model(args.ae_ckpt, "autoencoder")
    model = _load_model(args.seq_ckpt, "seq_predictor")
    ds = VideoDataset.load(args.dataset)
    split = _read_split(args.split)
    if split is not None:
        if not split.test_ids:
            raise DataError(f"split file {args.split} names no test sequences")
        ds = ds.select(split.test_ids)
    loss, kl, dropped, pred, truth, _ = _test_stage(autoencoder, model, ds.data, PipelineTiming())
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_array_file(out / "pred.npy", pred)
    write_array_file(out / "truth.npy", truth)
    doc = {"n_predictions": len(pred), "test_loss": loss, "kl": kl, "kl_dropped_units": dropped}
    (out / "predict.json").write_text(json.dumps(doc, indent=2))
    print(f"wrote {len(pred)} predicted frames to {out}")
    return 0


def _cmd_evaluate(args) -> int:
    shape_p, pred = parse_array_file(Path(args.pred).read_bytes())
    shape_t, truth = parse_array_file(Path(args.truth).read_bytes())
    if shape_p != shape_t:
        raise FormatError(f"pred shape {shape_p} != truth shape {shape_t}")
    pred = pred.reshape(-1, *shape_p[-3:]) if len(shape_p) > 4 else pred
    truth = truth.reshape(pred.shape)
    report = score_frames(pred, truth, with_intervals=args.intervals)
    doc = {"n_frames": int(pred.shape[0]), **report.to_dict()}
    Path(args.out).write_text(json.dumps(doc, indent=2))
    summary = {k: v for k, v in doc.items() if isinstance(v, (int, float))}
    print(json.dumps(summary, indent=2))
    return 0


def _cmd_report(args) -> int:
    runs_dir = Path(args.runs)
    runs = [
        _json_object(p.read_bytes(), f"run file {p}", ())
        for p in sorted(runs_dir.glob("*.json"))
        if p.name != "report.json"
    ]
    if not runs:
        raise FormatError(f"no run JSON files in {runs_dir}")
    intervals = next((run["intervals"] for run in runs if run.get("intervals")), None)
    emit_report(runs, args.out, intervals=intervals, svg_path=args.svg)
    print(f"wrote report for {len(runs)} runs to {args.out}")
    return 0


_COMMANDS = {
    "ingest": _cmd_ingest,
    "split": _cmd_split,
    "preprocess": _cmd_preprocess,
    "train-ae": _cmd_train_ae,
    "extract": _cmd_extract,
    "train-seq": _cmd_train_seq,
    "predict": _cmd_predict,
    "gridsearch": _cmd_gridsearch,
    "bench": _cmd_bench,
    "evaluate": _cmd_evaluate,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        _check_int("--seed", getattr(args, "seed", 0), 0)
        return _COMMANDS[args.command](args)
    except TrainingAbortError as exc:
        print(f"training aborted: {exc}", file=sys.stderr)
        return 3
    except (LatentcastError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
