"""The three benchmark workloads, built from the package's public functions.

Each workload has a set-up, a fixed unit of timed work, and a time-bounded
loop over that unit. Every stage is also available as a short fixed slice,
so that each run reports every end-to-end metric (see README.md).

The package is reached through module attributes (``lc.autoencoder.encode``
and so on), never through names imported here, so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import shutil
import statistics
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import latentcast as lc
import latentcast.autoencoder
import latentcast.dataio
import latentcast.experiment
import latentcast.metrics
import latentcast.nn.network
import latentcast.nn.optim
import latentcast.preprocess
import latentcast.seqmodels
import latentcast.synthetic
import latentcast.training
from tracing import STAGES

# Desk workload of the acceptance suite: 64 sequences x 20 frames x 64^2.
N_SEQUENCES = 64
LENGTH = 20
SIDE = 64
# Raw inputs are larger and longer than the desk frames, so that set-up and
# the request path run truncation, Lanczos resizing and Otsu binarization.
RAW_LENGTH = 24
RAW_SIDE = 96
RAW_SPRITE = 22
SPEC = lc.preprocess.PreprocessSpec(target_length=LENGTH, target_size=(SIDE, SIDE),
                                    binarize=True)
AE_CONFIG = dict(dims=[64, 128, 256], loss="l1", optimizer="adam", learning_rate=1e-3)
BATCH = 32
WINDOW = 5
KINDS = ("rnn", "lstm", "gru", "cnn3d", "convlstm", "crnn")
VECTOR_KINDS = ("rnn", "lstm", "gru")
HIDDEN = 64
SEQ_EPOCHS = 1
# a vector kind trains about ten times faster than a conv kind, so each
# cycle runs the vector kinds this many times to give them as many samples
VECTOR_REPEATS = 5
# seq-train: sequences in the 2-fold validation; one cycle then takes about
# 15 s on 2 cores
SEQ_SEQUENCES = 8
# forecast-stream: sequences per pass. Sequences alternate ConvLSTM (even
# positions) and 3D-CNN; with three, ConvLSTM serves two thirds of the
# requests and the latency median sits inside its mode, not at the edge of
# the gap between the two models' latencies.
STREAM_SEQUENCES = 3
PIXEL_POSITIONS = (0,)
# float32 rounding allowance between streamed and batched forecasts
FORECAST_ATOL = 1e-6
# cross-stage slices
SLICE_AE_TRAIN, SLICE_AE_VAL = 256, 32
SLICE_STREAM_PASSES = 2
SLICE_SEQ_SEQUENCES = 4

# Model initialisation seeds are fixed, as in the acceptance suite; inputs
# and splits come from the workload seed. Early training is chaotic in the
# initial weights: after one epoch the validation MSE of the autoencoder
# spans 0.045-0.061 over six initialisation seeds on one dataset, but
# 0.043-0.045 over six datasets from one initialisation. Timing does not
# depend on the weights.
AE_SEED = 0
PREDICTOR_SEED = 0

PARAMS = {
    "desk": [N_SEQUENCES, LENGTH, SIDE, SIDE, 1], "raw_length": RAW_LENGTH,
    "raw_side": RAW_SIDE, "autoencoder": AE_CONFIG, "batch": BATCH, "window": WINDOW,
    "hidden": HIDDEN, "hidden_layers": 1, "seq_epochs": SEQ_EPOCHS,
    "vector_repeats": VECTOR_REPEATS,
    "seq_sequences": SEQ_SEQUENCES, "k_folds": 2, "jobs": 1,
    "stream_sequences": STREAM_SEQUENCES, "pixel_positions": list(PIXEL_POSITIONS),
    "forecast_atol": FORECAST_ATOL,
    "slices": {"ae_frames": [SLICE_AE_TRAIN, SLICE_AE_VAL], "seq_sequences": SLICE_SEQ_SEQUENCES,
               "stream_passes": SLICE_STREAM_PASSES},
    "model_seeds": {"autoencoder": AE_SEED, "predictors": PREDICTOR_SEED},
}


class Seeds:
    """The input seeds of a run, derived from the workload seed."""

    def __init__(self, seed: int):
        (self.data, self.split, self.held, self.slice) = (
            int(v) for v in np.random.SeedSequence(seed).generate_state(4))


@dataclass
class Tally:
    """Operations attempted and failed, with the first failure messages."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, count: int, ok: bool, note: str = "") -> None:
        self.attempted += count
        if not ok:
            self.fail(count, note)

    def fail(self, count: int, note: str) -> None:
        self.failed += count
        if len(self.notes) < 20:
            self.notes.append(note)


def repeat_until(seconds: float, unit, after_first=None) -> list:
    """Run ``unit`` at least once, and again while one more unit, as long as
    the last one, still ends within ``seconds``. ``after_first`` is called,
    untimed, once the first unit has returned."""
    results = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        results.append(unit())
        last = perf_counter() - t0
        if after_first is not None and len(results) == 1:
            after_first()
        if perf_counter() - start + last > seconds:
            return results


def _raw_sprites(n: int, seed: int) -> np.ndarray:
    """(n, RAW_LENGTH, RAW_SIDE, RAW_SIDE, 1) uint8 frames."""
    ds = lc.synthetic.moving_sprites(n, length=RAW_LENGTH, size=RAW_SIDE,
                                     sprite_size=RAW_SPRITE, seed=seed)
    return np.rint(ds.data * 255.0).astype(np.uint8)


def _flat(data: np.ndarray) -> np.ndarray:
    return data.reshape(-1, *data.shape[2:])


def _finite(*values) -> bool:
    return all(np.isfinite(v).all() for v in values)


def _build_ae(seed: int):
    return lc.autoencoder.build_autoencoder(lc.autoencoder.AutoencoderConfig(**AE_CONFIG), seed)


def _seq_config(kind: str, pixel: bool = False):
    layers = 1 if kind in ("rnn", "lstm", "gru", "convlstm") else None
    return lc.seqmodels.SeqModelConfig(
        kind=kind, hidden_size=HIDDEN, hidden_layers=layers, window=WINDOW, loss="mse",
        optimizer="adam", output_activation="sigmoid" if pixel else "linear")


# ---------------------------------------------------------------------------
# Stage units, shared by the workloads and the cross-stage slices
# ---------------------------------------------------------------------------


@dataclass
class AeBlock:
    frames: int
    seconds: float
    val_mse: float


def ae_block(model, optimizer, train, val, tally: Tally) -> AeBlock:
    """One training block as in the acceptance suite's autoencoder fixture:
    one epoch through ``train_autoencoder``, then ``evaluate_loss`` and
    ``score_frames(reconstruct(val))``."""
    schedule = lc.training.TrainSchedule(batch_size=BATCH, max_epochs=1, patience=999)
    steps = -(-len(train) // BATCH)
    t0 = perf_counter()
    run = lc.autoencoder.train_autoencoder(model, train, val, schedule, optimizer=optimizer)
    val_mse = lc.training.evaluate_loss(model, val, val, "mse")
    recon = lc.autoencoder.reconstruct(model, val)
    report = lc.metrics.score_frames(recon, val, with_intervals=False)
    seconds = perf_counter() - t0
    ok = _finite(run.train_curve, run.val_curve, val_mse, report.ssim_mean)
    tally.record(steps * len(run.train_curve), ok, f"non-finite autoencoder loss: {val_mse}")
    return AeBlock(len(train) * len(run.train_curve), seconds, val_mse)


@dataclass
class SeqCall:
    kind: str
    windows: int
    seconds: float
    val_loss: float
    losses: list


def seq_cycle(latents: np.ndarray, tally: Tally) -> list[SeqCall]:
    """``grid_search_seq`` with 2-fold ``kfold_validate`` on a one-point grid,
    once for each of the six predictor kinds, then VECTOR_REPEATS - 1 more
    times for each vector kind."""
    n, t = latents.shape[:2]
    folds = np.array_split(np.arange(n), 2)
    windows = sum(n - len(f) for f in folds) * (t - WINDOW) * SEQ_EPOCHS
    schedule = lc.training.TrainSchedule(batch_size=BATCH, max_epochs=SEQ_EPOCHS, patience=999)
    calls = []
    for kind in KINDS + VECTOR_KINDS * (VECTOR_REPEATS - 1):
        grid = {"hidden_size": [HIDDEN], "hidden_layers": [1], "window": [WINDOW],
                "loss": ["mse"], "optimizer": ["adam"]}
        t0 = perf_counter()
        ranked = lc.experiment.grid_search_seq(grid, kind, latents, k_folds=2,
                                               seed=PREDICTOR_SEED, schedule=schedule, jobs=1)
        dt = perf_counter() - t0
        stats = ranked[0][1]
        tally.record(len(stats.losses), _finite(stats.losses), f"{kind}: fold losses {stats.losses}")
        calls.append(SeqCall(kind, windows, dt, stats.mean, stats.losses))
    return calls


@dataclass
class StreamPass:
    latent_ms: list = field(default_factory=list)
    pixel_ms: list = field(default_factory=list)
    stage_ms: dict = field(default_factory=lambda: {s: [] for s in STAGES})
    scored: int = 0
    score_s: float = 0.0
    outputs: list = field(default_factory=list)


class Streamer:
    """Closed loop, one client: a frame is handed in only after the previous
    request returned. Latent requests run preprocess -> encode and, once a
    window of latents is held, predict -> decode; pixel requests run
    preprocess -> pixel predict."""

    def __init__(self, ae, latent_models, pixel_model, sequences, tally: Tally, recorder=None):
        self.ae, self.latent_models, self.pixel_model = ae, latent_models, pixel_model
        self.sequences = sequences  # raw (T, H, W, 1) float32 frames in [0, 1]
        self.tally = tally
        self.recorder = recorder
        self.references: dict[int, np.ndarray] = {}
        self.requests = 0

    def _request(self) -> None:
        """Counts a request as attempted and tags its spans."""
        self.requests += 1
        self.tally.record(1, True)
        if self.recorder is not None:
            self.recorder.current_id = f"req{self.requests}"

    def run_pass(self) -> StreamPass:
        out = StreamPass()
        for i, raw in enumerate(self.sequences):
            model = self.latent_models[i % len(self.latent_models)]
            forecasts, frames = self._latent(raw, model, out)
            if forecasts is None:
                continue
            self._check_latent(i, model, forecasts, frames)
            self._score(forecasts, frames, out)
            if i in PIXEL_POSITIONS:
                forecasts = self._pixel(raw, out)
                if forecasts is not None:
                    for f in forecasts:
                        if not _in_unit_range(f):
                            self.tally.fail(1, f"sequence {i}: pixel forecast outside [0, 1]")
                    self._score(forecasts, frames, out)
        return out

    def _latent(self, raw, model, out: StreamPass):
        held, frames, forecasts = [], [], []
        for t in range(len(raw)):
            self._request()
            try:
                t0 = perf_counter()
                frame = lc.preprocess.preprocess_sequence(raw[t : t + 1], SPEC)[0]
                t1 = perf_counter()
                held.append(lc.autoencoder.encode(self.ae, frame))
                t2 = perf_counter()
                frames.append(frame)
                if len(held) < WINDOW:
                    continue
                held = held[-WINDOW:]
                latent = lc.seqmodels.predict_next(model, np.stack(held))
                t3 = perf_counter()
                forecast = lc.autoencoder.decode(self.ae, latent)
                t4 = perf_counter()
            except Exception:  # counted as failed; the run goes on with the next sequence
                self.tally.fail(1, traceback.format_exc(limit=2))
                return None, None
            forecasts.append(forecast)
            out.latent_ms.append((t4 - t0) * 1e3)
            for stage, a, b in (("preprocess", t0, t1), ("encode", t1, t2),
                                ("predict", t2, t3), ("decode", t3, t4)):
                out.stage_ms[stage].append((b - a) * 1e3)
        return forecasts, np.stack(frames)

    def _pixel(self, raw, out: StreamPass):
        held, forecasts = [], []
        for t in range(len(raw)):
            self._request()
            try:
                t0 = perf_counter()
                held.append(lc.preprocess.preprocess_sequence(raw[t : t + 1], SPEC)[0])
                t1 = perf_counter()
                if len(held) < WINDOW:
                    continue
                held = held[-WINDOW:]
                forecast = lc.seqmodels.predict_next(self.pixel_model, np.stack(held))
                t2 = perf_counter()
            except Exception:  # counted as failed, as above
                self.tally.fail(1, traceback.format_exc(limit=2))
                return None
            forecasts.append(forecast)
            out.pixel_ms.append((t2 - t0) * 1e3)
            out.stage_ms["preprocess"].append((t1 - t0) * 1e3)
            out.stage_ms["pixel_predict"].append((t2 - t1) * 1e3)
        return forecasts

    def _check_latent(self, i: int, model, forecasts, frames) -> None:
        """Range check, then equality with the batched path (window_dataset ->
        predict_next -> decode) on the same preprocessed frames. The batched
        path runs once per sequence, outside request timing and untraced."""
        if i not in self.references:
            with _paused(self.recorder):
                latents = lc.autoencoder.encode(self.ae, frames)
                windows, _, _ = lc.seqmodels.window_dataset(latents[None], WINDOW)
                self.references[i] = lc.autoencoder.decode(
                    self.ae, lc.seqmodels.predict_next(model, windows))
        ref = self.references[i]
        for j, f in enumerate(forecasts):
            if not _in_unit_range(f):
                self.tally.fail(1, f"sequence {i}: forecast {j} outside [0, 1]")
            elif j < len(ref) and np.abs(f - ref[j]).max() > FORECAST_ATOL:
                self.tally.fail(1, f"sequence {i}: forecast {j} differs from the batched path")

    def _score(self, forecasts, frames, out: StreamPass) -> None:
        """MAE, MSE, SSIM and intervals of the forecasts that have a truth frame."""
        pred = np.stack(forecasts[: len(frames) - WINDOW])
        t0 = perf_counter()
        lc.metrics.score_frames(pred, frames[WINDOW:])
        out.score_s += perf_counter() - t0
        out.scored += len(pred)
        out.outputs.append(pred)

    def warm_up(self) -> None:
        """One request through each model, so lazy allocation is not timed."""
        with _paused(self.recorder):
            self._warm_up()

    def _warm_up(self) -> None:
        frame = lc.preprocess.preprocess_sequence(self.sequences[0][:1], SPEC)[0]
        latent = lc.autoencoder.encode(self.ae, frame)
        for model in self.latent_models:
            lc.autoencoder.decode(self.ae, lc.seqmodels.predict_next(
                model, np.stack([latent] * WINDOW)))
        lc.seqmodels.predict_next(self.pixel_model, np.stack([frame] * WINDOW))


def _in_unit_range(f: np.ndarray) -> bool:
    return bool(np.isfinite(f).all() and f.min() >= 0.0 and f.max() <= 1.0)


class _paused:
    """Suspends a recorder's spans (the checks are not part of the workload)."""

    def __init__(self, recorder):
        self.recorder = recorder

    def __enter__(self):
        if self.recorder is not None:
            self.recorder.suspended = True

    def __exit__(self, *exc):
        if self.recorder is not None:
            self.recorder.suspended = False


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        raise ValueError(f"{n} latencies cannot give a tail with 10 samples beyond it")
    return ordered[n - 11], 100.0 * (n - 10) / n


def stream_metrics(passes: list[StreamPass]) -> tuple[dict, dict]:
    latent = [v for p in passes for v in p.latent_ms]
    pixel = [v for p in passes for v in p.pixel_ms]
    tails = [tail(p.latent_ms) for p in passes]
    score_s = sum(p.score_s for p in passes)
    metrics = {
        "forecast_p50_ms": statistics.median(latent),
        "forecast_tail_ms": statistics.median(v for v, _ in tails),
        "forecast_pixel_p50_ms": statistics.median(pixel),
        "score_frames_per_s": sum(p.scored for p in passes) / score_s,
    }
    extra = {
        "forecast_tail_percentile": tails[0][1],
        "forecast_tail_samples_per_pass": len(passes[0].latent_ms),
        "forecast_tail_rule": "median over passes of each pass's highest percentile "
                              "with at least 10 samples beyond it",
        "latent_requests": len(latent), "pixel_requests": len(pixel), "passes": len(passes),
    }
    return metrics, extra


def stage_p50_ms(passes: list[StreamPass]) -> dict[str, float]:
    return {s: statistics.median([v for p in passes for v in p.stage_ms[s]])
            for s in passes[0].stage_ms}


def ae_metrics(blocks: list[AeBlock]) -> dict:
    return {
        "ae_train_frames_per_s": sum(b.frames for b in blocks) / sum(b.seconds for b in blocks),
        "ae_val_mse": blocks[0].val_mse,
    }


def seq_metrics(calls: list[SeqCall]) -> dict:
    """Per kind, the median call time; a class's throughput is its windows
    over the sum of its kinds' median times. The fold losses of a kind are
    the same on every call."""
    med = {k: statistics.median(c.seconds for c in calls if c.kind == k) for k in KINDS}
    windows = {c.kind: c.windows for c in calls}
    first = {c.kind: c.val_loss for c in reversed(calls)}
    conv = [k for k in KINDS if k not in VECTOR_KINDS]
    return {
        "seq_train_vector_windows_per_s":
            sum(windows[k] for k in VECTOR_KINDS) / sum(med[k] for k in VECTOR_KINDS),
        "seq_train_conv_windows_per_s":
            sum(windows[k] for k in conv) / sum(med[k] for k in conv),
        "seq_val_mse": statistics.fmean(first[k] for k in KINDS),
    }


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """``setup`` builds every input; ``unit`` is one fixed piece of timed
    work; ``measure`` repeats it for the run's seconds; ``slices`` measures
    the other stages' metrics on small fixed inputs."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seeds = Seeds(seed)
        self.workdir = workdir
        self.tally = Tally()
        self.recorder = None

    def setup(self) -> None:
        raise NotImplementedError

    def unit(self):
        raise NotImplementedError

    def measure(self, seconds: float, after_first=None) -> tuple[dict, dict]:
        raise NotImplementedError

    def unit_seconds(self, result) -> float:
        raise NotImplementedError

    def same_outputs(self, a, b) -> bool:
        raise NotImplementedError

    def slices(self) -> dict:
        raise NotImplementedError

    def stage_p50_ms(self, result) -> dict[str, float]:
        return {}

    # slices -------------------------------------------------------------------

    def _slice_desk(self, n: int) -> np.ndarray:
        return lc.synthetic.moving_sprites(n, length=LENGTH, size=SIDE, seed=self.seeds.slice).data

    def ae_slice(self) -> dict:
        """Autoencoder metrics from one block on SLICE_AE_TRAIN frames."""
        frames = _flat(self._slice_desk(-(-(SLICE_AE_TRAIN + SLICE_AE_VAL) // LENGTH)))
        train, val = frames[:SLICE_AE_TRAIN], frames[SLICE_AE_TRAIN:][:SLICE_AE_VAL]
        model = _build_ae(AE_SEED)
        optimizer = lc.nn.optim.make_optimizer("adam", AE_CONFIG["learning_rate"])
        block = ae_block(model, optimizer, train, val, self.tally)
        return ae_metrics([block])

    def seq_slice(self) -> dict:
        """Predictor metrics from one cycle on SLICE_SEQ_SEQUENCES sequences."""
        latents = lc.autoencoder.encode_dataset(_build_ae(AE_SEED),
                                                self._slice_desk(SLICE_SEQ_SEQUENCES))
        return seq_metrics(seq_cycle(latents, self.tally))

    def stream_slice(self) -> dict:
        """Forecast metrics from SLICE_STREAM_PASSES passes over STREAM_SEQUENCES
        other sequences, with fresh models."""
        raw = _raw_sprites(STREAM_SEQUENCES, self.seeds.slice)[:, :LENGTH]
        streamer = Streamer(_build_ae(AE_SEED), *_stream_models(), list(raw.astype(np.float32) / 255.0),
                            self.tally)
        streamer.warm_up()
        return stream_metrics([streamer.run_pass() for _ in range(SLICE_STREAM_PASSES)])[0]


def _stream_models():
    latent_shape = (SIDE // 8, SIDE // 8, AE_CONFIG["dims"][-1])
    build = lc.seqmodels.build_seq_model
    return (
        [build(_seq_config("convlstm"), latent_shape, PREDICTOR_SEED),
         build(_seq_config("cnn3d"), latent_shape, PREDICTOR_SEED + 1)],
        build(_seq_config("convlstm", pixel=True), (SIDE, SIDE, 1), PREDICTOR_SEED + 2),
    )


class AeTrain(Workload):
    name = "ae-train"

    def setup(self) -> None:
        path = self.workdir / "raw.npy"
        lc.dataio.write_array_file(path, _raw_sprites(N_SEQUENCES, self.seeds.data))
        dataset = lc.dataio.load_sequences_npy(path, sequence_length=RAW_LENGTH)
        desk = lc.preprocess.preprocess_dataset(dataset, SPEC)
        split = lc.dataio.split_sequences(desk.ids, 0.2, 0.2, seed=self.seeds.split)
        self.train = _flat(desk.select(split.train_ids).data)
        self.val = _flat(desk.select(split.val_ids).data)
        self.model = _build_ae(AE_SEED)
        self.optimizer = lc.nn.optim.make_optimizer("adam", AE_CONFIG["learning_rate"])

    def unit(self) -> AeBlock:
        return ae_block(self.model, self.optimizer, self.train, self.val, self.tally)

    def unit_seconds(self, block: AeBlock) -> float:
        return block.seconds

    def same_outputs(self, a: AeBlock, b: AeBlock) -> bool:
        return a.val_mse == b.val_mse

    def measure(self, seconds, after_first=None):
        blocks = repeat_until(seconds, self.unit, after_first)
        return ae_metrics(blocks), {"blocks": len(blocks),
                                    "frames_trained": sum(b.frames for b in blocks)}

    def slices(self) -> dict:
        return {**self.seq_slice(), **self.stream_slice()}


class SeqTrain(Workload):
    name = "seq-train"

    def setup(self) -> None:
        desk = lc.synthetic.moving_sprites(N_SEQUENCES, length=LENGTH, size=SIDE,
                                           seed=self.seeds.data)
        split = lc.dataio.split_sequences(desk.ids, 0.2, 0.2, seed=self.seeds.split)
        chosen = desk.select(split.train_ids[:SEQ_SEQUENCES]).data
        self.model = _build_ae(AE_SEED)
        self.latents = lc.autoencoder.encode_dataset(self.model, chosen)

    def unit(self) -> list[SeqCall]:
        return seq_cycle(self.latents, self.tally)

    def unit_seconds(self, cycle) -> float:
        return sum(c.seconds for c in cycle)

    def same_outputs(self, a, b) -> bool:
        return [c.losses for c in a] == [c.losses for c in b]

    def measure(self, seconds, after_first=None):
        cycles = repeat_until(seconds, self.unit, after_first)
        return seq_metrics([c for cycle in cycles for c in cycle]), {"cycles": len(cycles)}

    def slices(self) -> dict:
        return {**self.ae_slice(), **self.stream_slice()}


class ForecastStream(Workload):
    name = "forecast-stream"

    def setup(self) -> None:
        seeds = self.seeds
        self.ae = self._round_trip("autoencoder", _build_ae(AE_SEED))
        latent_models, pixel = _stream_models()
        latent_models = [self._round_trip(f"latent{i}", m) for i, m in enumerate(latent_models)]
        pixel = self._round_trip("pixel", pixel)
        raw = _raw_sprites(STREAM_SEQUENCES, seeds.held)[:, :LENGTH]
        sequences = []
        for i, seq in enumerate(raw):
            folder = self.workdir / "frames" / f"seq{i:02d}"
            _write_pgm_directory(folder, seq)
            sequences.append(lc.dataio.load_frame_directory(folder).frames)
        self.streamer = Streamer(self.ae, latent_models, pixel, sequences, self.tally,
                                 self.recorder)

    def _round_trip(self, name: str, model):
        """save_checkpoint then load_checkpoint, as the CLI's train -> bench path."""
        path = self.workdir / "checkpoints" / name
        shutil.rmtree(path, ignore_errors=True)
        lc.nn.network.save_checkpoint(path, model)
        return lc.nn.network.load_checkpoint(path)[0]

    def unit(self) -> StreamPass:
        self.streamer.warm_up()
        return self.streamer.run_pass()

    def unit_seconds(self, p: StreamPass) -> float:
        return statistics.median(p.latent_ms)

    def same_outputs(self, a, b) -> bool:
        return all(np.array_equal(x, y) for x, y in zip(a.outputs, b.outputs))

    def stage_p50_ms(self, p: StreamPass) -> dict[str, float]:
        return stage_p50_ms([p])

    def measure(self, seconds, after_first=None):
        self.streamer.warm_up()
        passes = repeat_until(seconds, self.streamer.run_pass, after_first)
        metrics, extra = stream_metrics(passes)
        extra["stage_p50_ms"] = stage_p50_ms(passes)
        return metrics, extra

    def slices(self) -> dict:
        return {**self.ae_slice(), **self.seq_slice()}


def _write_pgm_directory(folder: Path, frames: np.ndarray) -> None:
    """Binary PGM (P5) files frame000.pgm ... for a (T, H, W, 1) uint8 stack."""
    shutil.rmtree(folder, ignore_errors=True)
    folder.mkdir(parents=True)
    for t, frame in enumerate(frames):
        h, w = frame.shape[:2]
        (folder / f"frame{t:03d}.pgm").write_bytes(b"P5\n%d %d\n255\n" % (w, h) + frame.tobytes())


WORKLOADS = {w.name: w for w in (AeTrain, SeqTrain, ForecastStream)}
