import json
import math
from dataclasses import replace

import numpy as np
import pytest

from latentcast import experiment
from latentcast.autoencoder import AutoencoderConfig
from latentcast.errors import FoldError, GridError, LeakageError, WindowError
from latentcast.experiment import (
    IdTracker,
    benchmark_inference,
    emit_report,
    fit_predictor,
    fold_stats,
    forecast,
    grid_enumerate,
    kfold_validate,
    run_baseline,
    run_pipeline,
)
from latentcast.metrics import bucketize_intervals
from latentcast.nn.losses import loss
from latentcast.seqmodels import (
    LAYERED_KINDS,
    SeqModelConfig,
    SeqModelKind,
    build_seq_model,
    predict_next,
    window_dataset,
)
from latentcast.synthetic import moving_sprites
from latentcast.training import TrainSchedule

TABLE1_GRID = {
    "dims": [[32, 64, 128], [64, 128, 256]],
    "loss": ["l1", "mse", "msle", "rmse"],
    "optimizer": ["adam", "rmsprop"],
    "learning_rate": [0.001, 0.0005],
}

TABLE5_GRID = {
    "hidden_layers": [1, 2, 3],
    "hidden_size": [128, 256],
    "loss": ["l1", "mse", "msle", "rmse"],
    "optimizer": ["adam", "rmsprop"],
    "learning_rate": [0.01, 0.001, 0.0001],
    "window": [3, 5, 10],
}


class TestGrid:
    def test_autoencoder_grid_size(self):
        assert len(grid_enumerate(TABLE1_GRID)) == 32

    def test_lstm_grid_size(self):
        assert len(grid_enumerate(TABLE5_GRID, SeqModelKind.LSTM)) == 432

    def test_cnn3d_drops_hidden_layers(self):
        configs = grid_enumerate(TABLE5_GRID, SeqModelKind.CNN3D)
        assert len(configs) == 144
        assert all("hidden_layers" not in c for c in configs)

    def test_crnn_drops_hidden_layers(self):
        assert len(grid_enumerate(TABLE5_GRID, SeqModelKind.CRNN)) == 144

    def test_deterministic_lexicographic_order(self):
        a = grid_enumerate(TABLE1_GRID)
        b = grid_enumerate(TABLE1_GRID)
        assert a == b
        # axes iterate in sorted-name order, values in given order
        assert a[0] == {
            "dims": [32, 64, 128],
            "learning_rate": 0.001,
            "loss": "l1",
            "optimizer": "adam",
        }

    def test_empty_axis_rejected(self):
        with pytest.raises(GridError):
            grid_enumerate({"loss": []})

    @pytest.mark.parametrize("values", ["l1", 3, {"a": 1}, None])
    def test_axis_that_is_not_a_list_rejected(self, values):
        with pytest.raises(GridError):
            grid_enumerate({"loss": values})


class TestKFold:
    def test_fold_stats_hand_values(self):
        fs = fold_stats([1.0, 2.0, 3.0, 4.0, 5.0])
        assert fs.mean == 3.0
        assert fs.std == pytest.approx(math.sqrt(2.5), abs=1e-12)

    def test_identical_losses_zero_std(self):
        fs = fold_stats([0.7, 0.7, 0.7])
        assert fs.std == pytest.approx(0.0, abs=1e-12)

    def test_partition_each_sequence_validates_once(self):
        rng = np.random.default_rng(0)
        latents = rng.normal(size=(10, 5, 2, 2, 2)).astype(np.float32)
        cfg = SeqModelConfig(kind="rnn", hidden_size=4, hidden_layers=1, window=3)
        fs = kfold_validate(
            cfg, latents, k_folds=5, seed=0,
            schedule=TrainSchedule(batch_size=8, max_epochs=1, patience=1),
        )
        assert len(fs.losses) == 5
        assert fs.std >= 0.0

    @pytest.mark.parametrize("k_folds", [2, 3, 5])
    @pytest.mark.parametrize("kind", list(SeqModelKind))
    def test_same_losses_as_one_fit_per_fold(self, monkeypatch, kind, k_folds):
        """Bitwise the definition: a fresh ``fit_predictor`` per rotation on
        the sequences of the other folds, with one build per call."""
        latents = np.random.default_rng(4).normal(size=(5, 6, 4, 4, 2)).astype(np.float32)
        cfg = SeqModelConfig(kind=kind, hidden_size=4, window=3, learning_rate=0.2,
                             hidden_layers=1 if kind in LAYERED_KINDS else None)
        schedule = TrainSchedule(batch_size=4, max_epochs=4, patience=0)
        folds = np.array_split(np.random.default_rng(7).permutation(5), k_folds)
        runs = [
            fit_predictor(cfg, 7, latents[np.concatenate(folds[:i] + folds[i + 1 :])],
                          latents[val_idx], schedule)[1]
            for i, val_idx in enumerate(folds)
        ]
        assert any(len(run.val_curve) < schedule.max_epochs for run in runs)
        builds = []
        build = experiment.build_seq_model
        monkeypatch.setattr(experiment, "build_seq_model",
                            lambda *args: builds.append(args) or build(*args))
        fs = kfold_validate(cfg, latents, k_folds, seed=7, schedule=schedule)
        assert [v.hex() for v in fs.losses] == [run.final_val_loss.hex() for run in runs]
        assert len(builds) == 1
        with pytest.raises(WindowError):  # every fold is windowed before the build
            kfold_validate(replace(cfg, window=6), latents, k_folds)
        assert len(builds) == 1

    def test_too_many_folds(self):
        latents = np.zeros((3, 5, 2, 2, 1), dtype=np.float32)
        cfg = SeqModelConfig(kind="rnn", hidden_size=4, hidden_layers=1, window=3)
        with pytest.raises(FoldError):
            kfold_validate(cfg, latents, k_folds=5)


class TestIdTracker:
    def test_leak_raises(self):
        tracker = IdTracker(["t1", "t2"])
        tracker.use(["a", "b"], "train")
        with pytest.raises(LeakageError):
            tracker.use(["a", "t2"], "train")

    def test_log_records_roles(self):
        tracker = IdTracker(["t1"])
        tracker.use(["a"], "stage1-train")
        tracker.use(["b"], "stage2-train")
        assert [role for role, _ in tracker.log] == ["stage1-train", "stage2-train"]


@pytest.fixture(scope="module")
def micro_dataset():
    return moving_sprites(10, length=8, size=16, sprite_size=5, seed=5)


MICRO_AE = dict(dims=[4, 8], input_size=16, learning_rate=0.003)
MICRO_SCHED = TrainSchedule(batch_size=16, max_epochs=2, patience=5)


def micro_pipeline(dataset, seed=0, kind="rnn"):
    layers = 1 if kind in ("rnn", "lstm", "gru", "convlstm") else None
    return run_pipeline(
        dataset,
        AutoencoderConfig(**MICRO_AE),
        SeqModelConfig(kind=kind, hidden_size=8, hidden_layers=layers, window=3,
                       learning_rate=0.003),
        seed=seed,
        ae_schedule=MICRO_SCHED,
        seq_schedule=MICRO_SCHED,
    )


class TestPipeline:
    def test_micro_pipeline_contracts(self, micro_dataset):
        result = micro_pipeline(micro_dataset)
        n_test = len(result.split.test_ids)
        assert result.n_predictions == n_test * (8 - 3)
        assert -1.0 <= min(result.prediction.ssim_scores) <= max(result.prediction.ssim_scores) <= 1.0
        assert result.timing.total_s == pytest.approx(
            result.timing.stage2_s + result.timing.stage1_plus_3_s, abs=1e-9
        )
        assert result.ae_run is not None
        assert result.seq_run.final_test_loss is not None

    def test_pipeline_deterministic(self, micro_dataset):
        a = micro_pipeline(micro_dataset, seed=3)
        b = micro_pipeline(micro_dataset, seed=3)
        assert a.prediction.ssim_mean == b.prediction.ssim_mean
        assert a.prediction.mse == b.prediction.mse
        assert a.seq_run.train_curve == b.seq_run.train_curve

    def test_split_seed_pins_partition(self, micro_dataset):
        a = micro_pipeline(micro_dataset, seed=0)
        b = run_pipeline(
            micro_dataset,
            AutoencoderConfig(**MICRO_AE),
            SeqModelConfig(kind="rnn", hidden_size=8, hidden_layers=1, window=3),
            seed=99,
            split_seed=0,
            ae_schedule=MICRO_SCHED,
            seq_schedule=MICRO_SCHED,
        )
        assert a.split.test_ids == b.split.test_ids

    def test_baseline_outputs_in_unit_interval(self, micro_dataset):
        cfg = SeqModelConfig(kind="rnn", hidden_size=8, hidden_layers=1, window=3,
                             learning_rate=0.003)
        result = run_baseline(micro_dataset, cfg, seed=0, seq_schedule=MICRO_SCHED)
        assert result.config["sequence_model"]["output_activation"] == "sigmoid"
        assert result.n_predictions == len(result.split.test_ids) * (8 - 3)
        assert result.prediction.ssim_mean <= 1.0


def test_forecast_runs_the_model_once_per_batch():
    sequences = np.random.default_rng(2).normal(size=(30, 6, 2, 2, 2)).astype(np.float32)
    model = build_seq_model(
        SeqModelConfig(kind="rnn", hidden_size=4, hidden_layers=1, window=3), (2, 2, 2), 0
    )
    inputs, targets, _ = window_dataset(sequences, 3)
    expected = predict_next(model, inputs)
    batches = []
    forward = model.forward
    model.forward = lambda x, train=True: batches.append(len(x)) or forward(x, train)
    test_loss, pred, truth = forecast(model, sequences)
    assert batches == [64, 26]  # 90 windows at the default batch size, one pass
    assert np.array_equal(pred, expected)
    assert np.array_equal(truth, targets)
    assert test_loss == loss("mse", pred, targets)


class TestBenchmark:
    def test_validation(self):
        model = build_seq_model(
            SeqModelConfig(kind="rnn", hidden_size=4, hidden_layers=1, window=3), (2, 2, 1), 0
        )
        x = np.zeros((2, 3, 2, 2, 1), dtype=np.float32)
        with pytest.raises(ValueError):
            benchmark_inference(model, x, warmup=5, iters=10)
        with pytest.raises(ValueError):
            benchmark_inference(model, x, warmup=2, iters=30)

    def test_small_model_faster_than_big(self):
        small = build_seq_model(
            SeqModelConfig(kind="rnn", hidden_size=4, hidden_layers=1, window=3), (2, 2, 1), 0
        )
        big = build_seq_model(
            SeqModelConfig(kind="convlstm", hidden_size=64, hidden_layers=2, window=3),
            (16, 16, 8), 0,
        )
        xs = np.random.default_rng(0).normal(size=(2, 3, 2, 2, 1)).astype(np.float32)
        xb = np.random.default_rng(0).normal(size=(2, 3, 16, 16, 8)).astype(np.float32)
        fast = benchmark_inference(small, xs, warmup=5, iters=30)
        slow = benchmark_inference(big, xb, warmup=5, iters=30)
        assert fast.per_iteration_median_s < slow.per_iteration_median_s
        assert fast.iterations == 30

    def test_repeat_stability(self):
        model = build_seq_model(
            SeqModelConfig(kind="convlstm", hidden_size=16, hidden_layers=1, window=3),
            (8, 8, 4), 0,
        )
        x = np.random.default_rng(1).normal(size=(4, 3, 8, 8, 4)).astype(np.float32)
        # short runs of the two measurements alternate, so a drift in machine
        # speed that lasts seconds reaches both sides alike
        medians = np.zeros((10, 2))
        for run in medians:
            for side in range(2):
                run[side] = benchmark_inference(model, x, warmup=5, iters=50).per_iteration_median_s
        ratio = np.median(medians[:, 0]) / np.median(medians[:, 1])
        assert 0.75 <= ratio <= 1.25


class TestReport:
    def _run_dict(self, ssim_value, kind="rnn", seed=0):
        return {
            "config": {"sequence_model": {"kind": kind}},
            "seed": seed,
            "metrics": {"ssim": ssim_value, "mse": 0.01, "mae": 0.05, "kl": 0.2},
        }

    def test_round_trip_and_sorting(self, tmp_path):
        runs = [self._run_dict(0.5, "rnn"), self._run_dict(0.8, "cnn3d")]
        out = tmp_path / "report.json"
        doc = emit_report(runs, out)
        parsed = json.loads(out.read_text())
        assert parsed == doc
        assert [row["model"] for row in parsed["comparison"]] == ["cnn3d", "rnn"]
        assert parsed["runs"][0]["metrics"]["ssim"] == 0.5

    def test_svg_histogram(self, tmp_path):
        intervals = bucketize_intervals([0.1, 0.4, 0.5, 0.9])
        svg = tmp_path / "hist.svg"
        emit_report([self._run_dict(0.4)], tmp_path / "r.json", intervals=intervals.to_dict(),
                    svg_path=svg)
        text = svg.read_text()
        assert text.startswith("<svg") and "excellent" in text

    def test_requires_runs(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], tmp_path / "r.json")
