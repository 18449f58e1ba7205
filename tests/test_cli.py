import argparse
import contextlib
import inspect
import io
import json
import math
import os
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from latentcast import cli, experiment
from latentcast.autoencoder import AutoencoderConfig
from latentcast.cli import _COMMANDS, build_parser, main
from latentcast.dataio import NPY_MAGIC, VideoDataset, write_array_file
from latentcast.experiment import run_pipeline
from latentcast.nn.network import load_checkpoint, save_checkpoint
from latentcast.preprocess import PreprocessSpec
from latentcast.seqmodels import SeqModelConfig
from latentcast.synthetic import moving_sprites
from latentcast.training import TrainSchedule


def write_pnm(path, pixels):
    """A binary PGM of (H, W) or (H, W, 1) pixels, or a PPM of (H, W, 3)."""
    h, w = pixels.shape[:2]
    magic = b"P6" if pixels.ndim == 3 and pixels.shape[2] == 3 else b"P5"
    path.write_bytes(magic + b" %d %d 255\n" % (w, h) + pixels.astype(np.uint8).tobytes())


@pytest.fixture()
def dataset_file(tmp_path):
    ds = moving_sprites(8, length=8, size=16, sprite_size=5, seed=1, labels=True)
    path = tmp_path / "ds.npy"
    ds.save(path)
    return path


class TestIngest:
    def test_npy_roundtrip(self, tmp_path):
        arr = np.random.default_rng(0).integers(0, 256, size=(20, 3, 16, 16)).astype(np.uint8)
        raw = tmp_path / "raw.npy"
        write_array_file(raw, arr)
        out = tmp_path / "ds.npy"
        assert main(["ingest", "--input", str(raw), "--format", "npy", "--out", str(out)]) == 0
        ds = VideoDataset.load(out)
        assert ds.data.shape == (3, 20, 16, 16, 1)

    def test_pnm_directory_of_sequences(self, tmp_path):
        rng = np.random.default_rng(0)
        for s in range(2):
            seq_dir = tmp_path / f"video{s}"
            seq_dir.mkdir()
            for i in range(4):
                write_pnm(seq_dir / f"f{i:02d}.pgm", rng.integers(0, 256, size=(12, 12)))
        out = tmp_path / "ds.npy"
        code = main(
            ["ingest", "--input", str(tmp_path), "--format", "pnm-dir",
             "--channels", "1", "--out", str(out)]
        )
        assert code == 0
        assert VideoDataset.load(out).data.shape == (2, 4, 12, 12, 1)

    def test_missing_file_is_data_error(self, tmp_path):
        code = main(["ingest", "--input", str(tmp_path / "nope.npy"), "--format", "npy",
                     "--out", str(tmp_path / "o.npy")])
        assert code == 2

    def test_usage_error_is_exit_1(self):
        assert main(["ingest", "--format", "npy"]) == 1


class TestSplitPreprocess:
    def test_split_writes_json(self, tmp_path, dataset_file):
        out = tmp_path / "split.json"
        code = main(["split", "--dataset", str(dataset_file), "--test", "0.25",
                     "--val", "0.0", "--seed", "3", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["test_ids"]) == 2
        assert len(doc["train_ids"]) == 6

    def test_preprocess_resizes_and_reports_continuity(self, tmp_path, dataset_file):
        out = tmp_path / "prep.npy"
        cont = tmp_path / "continuity.json"
        code = main(
            ["preprocess", "--in", str(dataset_file), "--len", "8", "--size", "16",
             "--binarize", "--stratify", "6", "--seed", "0",
             "--continuity-report", str(cont), "--out", str(out)]
        )
        assert code == 0
        ds = VideoDataset.load(out)
        assert ds.data.shape == (6, 8, 16, 16, 1)
        assert set(np.unique(ds.data)) <= {0.0, 1.0}
        rows = json.loads(cont.read_text())
        assert len(rows) == 6
        assert all("monotone_fraction" in r for r in rows)


class TestTrainFlow:
    def test_train_extract_trainseq_bench(self, tmp_path, dataset_file):
        ae_dir = tmp_path / "ae_ckpt"
        code = main(
            ["train-ae", "--dataset", str(dataset_file), "--dims", "4,8",
             "--loss", "l1", "--opt", "adam", "--lr", "0.003", "--seed", "0",
             "--epochs", "2", "--batch-size", "16", "--out", str(ae_dir)]
        )
        assert code == 0
        assert (ae_dir / "manifest.json").exists()

        latents = tmp_path / "latents.npy"
        assert main(["extract", "--ckpt", str(ae_dir), "--dataset", str(dataset_file),
                     "--out", str(latents)]) == 0

        seq_dir = tmp_path / "seq_ckpt"
        code = main(
            ["train-seq", "--latents", str(latents), "--kind", "rnn", "--layers", "1",
             "--hidden", "8", "--window", "3", "--lr", "0.003", "--seed", "0",
             "--epochs", "2", "--batch-size", "16", "--out", str(seq_dir)]
        )
        assert code == 0

        bench_out = tmp_path / "bench.json"
        code = main(["bench", "--ckpt", str(seq_dir), "--latents", str(latents),
                     "--iters", "30", "--warmup", "5", "--out", str(bench_out)])
        assert code == 0
        doc = json.loads(bench_out.read_text())
        assert doc["per_iteration_median_s"] > 0

    def test_gridsearch_ae_uses_dataset_geometry(self, tmp_path, dataset_file):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "dims": [[4, 8]],
            "loss": ["l1", "mse"],
            "optimizer": ["adam"],
            "learning_rate": [0.003],
        }))
        out_dir = tmp_path / "gs_ae"
        code = main(["gridsearch", "--stage", "ae", "--grid", str(grid),
                     "--dataset", str(dataset_file), "--seed", "0", "--epochs", "1",
                     "--out", str(out_dir)])
        assert code == 0
        rows = json.loads((out_dir / "results.json").read_text())
        assert len(rows) == 2
        assert rows[0]["val_mse"] <= rows[1]["val_mse"]

    def test_bench_rejects_ae_checkpoint(self, tmp_path, dataset_file):
        ae_dir = tmp_path / "ae"
        assert main(["train-ae", "--dataset", str(dataset_file), "--dims", "4,8",
                     "--lr", "0.003", "--epochs", "1", "--out", str(ae_dir)]) == 0
        lat = tmp_path / "lat.npy"
        write_array_file(lat, np.zeros((2, 6, 4, 4, 8), dtype=np.float32))
        assert main(["bench", "--ckpt", str(ae_dir), "--latents", str(lat)]) == 2

    def test_gridsearch_seq(self, tmp_path, dataset_file):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "hidden_layers": [1],
            "hidden_size": [4, 8],
            "loss": ["mse"],
            "optimizer": ["adam"],
            "learning_rate": [0.003],
            "window": [3],
        }))
        latents = tmp_path / "lat.npy"
        lat = np.random.default_rng(0).normal(size=(6, 6, 2, 2, 2)).astype(np.float32)
        write_array_file(latents, lat)
        out_dir = tmp_path / "gs"
        code = main(["gridsearch", "--stage", "seq", "--grid", str(grid),
                     "--dataset", str(latents), "--kind", "rnn", "--kfold", "2",
                     "--seed", "0", "--epochs", "1", "--out", str(out_dir)])
        assert code == 0
        rows = json.loads((out_dir / "results.json").read_text())
        assert len(rows) == 2
        assert rows[0]["fold_mean"] <= rows[1]["fold_mean"]

    def test_train_ae_matches_pipeline_stage1(self, tmp_path, dataset_file):
        split = tmp_path / "split.json"
        assert main(["split", "--dataset", str(dataset_file), "--seed", "3",
                     "--out", str(split)]) == 0
        ae_dir = tmp_path / "ae"
        assert main(["train-ae", "--dataset", str(dataset_file), "--dims", "4,8",
                     "--loss", "mse", "--lr", "0.003", "--seed", "0", "--epochs", "2",
                     "--batch-size", "16", "--split", str(split), "--out", str(ae_dir)]) == 0
        cli_run = json.loads((ae_dir / "manifest.json").read_text())["extra"]["train_run"]

        result = run_pipeline(
            VideoDataset.load(dataset_file),
            AutoencoderConfig(dims=[4, 8], loss="mse", learning_rate=0.003, input_size=16),
            SeqModelConfig(kind="cnn3d", hidden_size=4, window=3),
            seed=0,
            ae_schedule=TrainSchedule(batch_size=16, max_epochs=2),
            seq_schedule=TrainSchedule(batch_size=16, max_epochs=1),
            split_seed=3,
        )
        lib_run = asdict(result.ae_run)
        del cli_run["final_test_loss"], lib_run["final_test_loss"]
        assert cli_run == lib_run

    @pytest.mark.parametrize("stage", ["seq", "ae"])
    def test_gridsearch_does_not_depend_on_jobs(self, tmp_path, dataset_file, stage):
        if stage == "seq":
            grid = {"hidden_layers": [1], "hidden_size": [4, 8], "window": [3]}
            data = tmp_path / "lat.npy"
            lat = np.random.default_rng(0).normal(size=(6, 6, 2, 2, 2)).astype(np.float32)
            write_array_file(data, lat)
        else:
            grid = {"dims": [[4, 8]], "loss": ["l1", "mse"], "learning_rate": [0.003]}
            data = dataset_file
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid))
        results = []
        for jobs in ("1", "2"):
            out_dir = tmp_path / f"gs{jobs}"
            assert main(["gridsearch", "--stage", stage, "--grid", str(grid_path),
                         "--dataset", str(data), "--kind", "rnn", "--kfold", "2",
                         "--jobs", jobs, "--seed", "0", "--epochs", "1",
                         "--out", str(out_dir)]) == 0
            results.append((out_dir / "results.json").read_text())
        assert results[0] == results[1]

    def test_jobs_must_be_positive_and_bound_the_pool(self, tmp_path, monkeypatch, capsys):
        sizes = []

        class FakePool:  # records the pool size and starts no process
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(experiment.os, "cpu_count", lambda: 4)
        assert experiment._map(abs, [-1, -2, -3], 100_000) == [1, 2, 3]
        assert experiment._map(abs, [-1] * 9, 100_000) == [1] * 9
        assert experiment._map(abs, [-1] * 9, 2) == [1] * 9
        assert experiment._map(abs, [-1], 100_000) == [1]
        assert sizes == [3, 4, 2]
        lat, grid = tmp_path / "lat.npy", tmp_path / "grid.json"
        write_array_file(lat, np.zeros((4, 6, 2, 2, 2), dtype=np.float32))
        grid.write_text(json.dumps({"hidden_size": [4], "window": [3]}))
        assert main(["gridsearch", "--stage", "seq", "--kind", "cnn3d", "--kfold", "2",
                     "--grid", str(grid), "--dataset", str(lat), "--jobs", "0",
                     "--out", str(tmp_path / "gs")]) == 2
        assert "jobs must be an integer >= 1" in capsys.readouterr().err


    @pytest.mark.parametrize("channels, kinds", [(1, ["cnn3d", "convlstm", "rnn"]), (3, ["gru"])],
                             ids=["gray", "colour"])
    def test_cli_chain_matches_pipeline(self, tmp_path, channels, kinds):
        """ingest -> split -> train-ae -> extract -> train-seq -> predict ->
        report gives the run documents and comparison of ``run_pipeline``."""
        frames, runs = tmp_path / "frames", tmp_path / "runs"
        ds_file, split, ae_dir, latents = (tmp_path / n for n in ("ds.npy", "split.json", "ae",
                                                                 "lat.npy"))
        sprites = moving_sprites(8, length=8, size=16, sprite_size=5, channels=channels, seed=1)
        for seq_id, seq in zip(sprites.ids, np.rint(sprites.data * 255)):
            (frames / seq_id).mkdir(parents=True)
            for i, frame in enumerate(seq):
                write_pnm(frames / seq_id / f"f{i:02d}.{'pgm' if channels == 1 else 'ppm'}",
                          frame)
        schedule = ["--epochs", "2", "--batch-size", "16"]
        assert main(["ingest", "--input", str(frames), "--format", "pnm-dir",
                     "--channels", str(channels), "--out", str(ds_file)]) == 0
        assert main(["split", "--dataset", str(ds_file), "--seed", "3",
                     "--out", str(split)]) == 0
        assert main(["train-ae", "--dataset", str(ds_file), "--dims", "4,8",
                     "--loss", "mse", "--lr", "0.003", "--seed", "0", "--split", str(split),
                     *schedule, "--out", str(ae_dir)]) == 0
        assert main(["extract", "--ckpt", str(ae_dir), "--dataset", str(ds_file),
                     "--out", str(latents)]) == 0
        runs.mkdir()
        dataset, lib_docs = VideoDataset.load(ds_file), []
        for kind in kinds:
            layers = None if kind == "cnn3d" else 1
            depth = ["--layers", str(layers)] if layers else []
            seq_dir, pred_dir, scores = (tmp_path / f"{kind}-{n}" for n in ("seq", "pred",
                                                                           "eval.json"))
            assert main(["train-seq", "--latents", str(latents), "--kind", kind, *depth,
                         "--hidden", "4", "--window", "3", "--lr", "0.003", "--seed", "0",
                         "--split", str(split), *schedule, "--out", str(seq_dir)]) == 0
            assert main(["predict", "--ae-ckpt", str(ae_dir), "--seq-ckpt", str(seq_dir),
                         "--dataset", str(ds_file), "--split", str(split),
                         "--out", str(pred_dir)]) == 0
            assert main(["evaluate", "--pred", str(pred_dir / "pred.npy"),
                         "--truth", str(pred_dir / "truth.npy"), "--out", str(scores)]) == 0
            (runs / f"{kind}.json").write_bytes((pred_dir / "predict.json").read_bytes())
            cli = json.loads((pred_dir / "predict.json").read_text())

            lib = json.loads(json.dumps(run_pipeline(
                dataset,
                AutoencoderConfig(dims=[4, 8], loss="mse", learning_rate=0.003, input_size=16,
                                  input_channels=channels),
                SeqModelConfig(kind=kind, hidden_size=4, hidden_layers=layers, window=3,
                               learning_rate=0.003),
                seed=0,
                ae_schedule=TrainSchedule(batch_size=16, max_epochs=2),
                seq_schedule=TrainSchedule(batch_size=16, max_epochs=2),
                split_seed=3,
            ).to_dict()))
            lib_docs.append(lib)
            assert {**cli, "timing": None} == {**lib, "timing": None}
            scored = json.loads(scores.read_text())
            assert [scored["mae"], scored["mse"], scored["ssim_mean"], scored["ssim_scores"]] == [
                lib["metrics"]["mae"], lib["metrics"]["mse"], lib["metrics"]["ssim"],
                lib["ssim_scores"]]
            assert scored["n_frames"] == cli["n_predictions"] == cli["split"]["test"] * (8 - 3)

        report, svg = tmp_path / "report.json", tmp_path / "hist.svg"
        assert main(["report", "--runs", str(runs), "--out", str(report), "--svg", str(svg)]) == 0
        expected = experiment.emit_report(lib_docs, tmp_path / "lib-report.json")
        assert json.loads(report.read_text())["comparison"] == expected["comparison"]
        assert sorted(row["model"] for row in expected["comparison"]) == kinds
        assert svg.read_text().startswith("<svg")

    @pytest.mark.parametrize("stage", ["seq", "ae"])
    def test_gridsearch_split_keeps_test_sequences_out(self, tmp_path, dataset_file, stage):
        if stage == "seq":
            grid = {"hidden_layers": [1], "hidden_size": [4], "window": [3]}
            data = tmp_path / "lat.npy"
            lat = np.random.default_rng(0).normal(size=(8, 6, 2, 2, 2)).astype(np.float32)
            VideoDataset(lat, VideoDataset.load(dataset_file).ids).save(data)
        else:
            grid = {"dims": [[4, 8]], "loss": ["l1", "mse"], "learning_rate": [0.003]}
            data = dataset_file
        grid_path, split = tmp_path / "grid.json", tmp_path / "split.json"
        grid_path.write_text(json.dumps(grid))
        assert main(["split", "--dataset", str(data), "--seed", "3", "--out", str(split)]) == 0
        results = []
        for fill in (None, 0.5):
            if fill is not None:  # overwrite the test sequences' frames
                ds = VideoDataset.load(data)
                frames = ds.data.copy()
                frames[[ds.ids.index(i) for i in json.loads(split.read_text())["test_ids"]]] = fill
                VideoDataset(frames, ds.ids, ds.labels).save(data)
            out_dir = tmp_path / f"gs{fill}"
            assert main(["gridsearch", "--stage", stage, "--grid", str(grid_path),
                         "--dataset", str(data), "--kind", "rnn", "--kfold", "2",
                         "--split", str(split), "--seed", "0", "--epochs", "1",
                         "--out", str(out_dir)]) == 0
            results.append((out_dir / "results.json").read_bytes())
        assert results[0] == results[1]


class TestBadInputs:
    @pytest.fixture()
    def latents_file(self, tmp_path):
        path = tmp_path / "lat.npy"
        lat = np.random.default_rng(0).normal(size=(4, 6, 2, 2, 2)).astype(np.float32)
        write_array_file(path, lat)
        return path

    @staticmethod
    def split_with_unknown_id(tmp_path, known):
        path = tmp_path / "split.json"
        path.write_text(json.dumps({"train_ids": [known, "no-such-seq"], "val_ids": [],
                                    "test_ids": [], "seed": 0}))
        return path

    def test_train_ae_unknown_split_id_is_data_error(self, tmp_path, dataset_file):
        known = VideoDataset.load(dataset_file).ids[0]
        split = self.split_with_unknown_id(tmp_path, known)
        assert main(["train-ae", "--dataset", str(dataset_file), "--dims", "4,8",
                     "--epochs", "1", "--split", str(split), "--out", str(tmp_path / "ae")]) == 2

    def test_train_seq_unknown_split_id_is_data_error(self, tmp_path, latents_file):
        split = self.split_with_unknown_id(tmp_path, "seq00000")
        assert main(["train-seq", "--latents", str(latents_file), "--kind", "cnn3d",
                     "--hidden", "4", "--window", "3", "--epochs", "1", "--split", str(split),
                     "--out", str(tmp_path / "seq")]) == 2

    @pytest.mark.parametrize(
        "text, named",
        [(json.dumps({"train_ids": ["seq00000"], "val_ids": [], "test_ids": []}), "seed"),
         ("{not json", "JSON")],
        ids=["missing-seed", "invalid-json"],
    )
    def test_malformed_split_file_is_data_error(self, tmp_path, dataset_file, latents_file,
                                                 text, named, capsys):
        split = tmp_path / "split.json"
        split.write_text(text)
        assert main(["train-ae", "--dataset", str(dataset_file), "--dims", "4,8",
                     "--epochs", "1", "--split", str(split), "--out", str(tmp_path / "ae")]) == 2
        assert main(["train-seq", "--latents", str(latents_file), "--kind", "cnn3d",
                     "--hidden", "4", "--window", "3", "--epochs", "1", "--split", str(split),
                     "--out", str(tmp_path / "seq")]) == 2
        assert capsys.readouterr().err.count(named) == 2

    @pytest.mark.parametrize("broken", ["array-header", "meta"])
    def test_malformed_dataset_file_is_data_error(self, tmp_path, dataset_file, broken):
        if broken == "array-header":
            header = b"{'descr': '<f4', 'fortran_order': False, 'shape': ('a',)}\n"
            dataset_file.write_bytes(NPY_MAGIC + bytes([1, 0]) + len(header).to_bytes(2, "little")
                                     + header)
        else:
            (tmp_path / "ds.npy.meta.json").write_text("{not json")
        assert main(["split", "--dataset", str(dataset_file),
                     "--out", str(tmp_path / "split.json")]) == 2

    def test_split_without_training_ids_is_data_error(self, tmp_path, dataset_file,
                                                      latents_file):
        split = tmp_path / "split.json"
        split.write_text(json.dumps({"train_ids": [], "val_ids": [], "test_ids": [], "seed": 0}))
        assert main(["train-ae", "--dataset", str(dataset_file), "--dims", "4,8",
                     "--epochs", "1", "--split", str(split), "--out", str(tmp_path / "ae")]) == 2
        assert main(["train-seq", "--latents", str(latents_file), "--kind", "cnn3d",
                     "--hidden", "4", "--window", "3", "--epochs", "1", "--split", str(split),
                     "--out", str(tmp_path / "seq")]) == 2

    def test_gridsearch_ae_without_validation_ids_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "ds.npy"
        moving_sprites(4, length=8, size=16, sprite_size=5, seed=0).save(data)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"dims": [[4, 8]]}))
        assert main(["gridsearch", "--stage", "ae", "--grid", str(grid), "--dataset", str(data),
                     "--epochs", "1", "--out", str(tmp_path / "gs")]) == 2
        assert "validation partition is empty" in capsys.readouterr().err

    def test_predict_checks_checkpoint_kinds_and_test_ids(self, tmp_path, dataset_file):
        ae_dir, seq_dir, lat = tmp_path / "ae", tmp_path / "seq", tmp_path / "lat.npy"
        assert main(["train-ae", "--dataset", str(dataset_file), "--dims", "4,8",
                     "--epochs", "1", "--out", str(ae_dir)]) == 0
        assert main(["extract", "--ckpt", str(ae_dir), "--dataset", str(dataset_file),
                     "--out", str(lat)]) == 0
        assert main(["train-seq", "--latents", str(lat), "--kind", "cnn3d", "--hidden", "4",
                     "--window", "3", "--epochs", "1", "--out", str(seq_dir)]) == 0

        def predict(ae, seq, *split):
            return main(["predict", "--ae-ckpt", str(ae), "--seq-ckpt", str(seq),
                         "--dataset", str(dataset_file), *split, "--out", str(tmp_path / "p")])

        assert predict(seq_dir, seq_dir) == 2
        assert predict(ae_dir, ae_dir) == 2
        assert main(["extract", "--ckpt", str(seq_dir), "--dataset", str(dataset_file),
                     "--out", str(tmp_path / "lat2.npy")]) == 2
        split = tmp_path / "split.json"
        split.write_text(json.dumps({"train_ids": VideoDataset.load(dataset_file).ids,
                                     "val_ids": [], "test_ids": [], "seed": 0}))
        assert predict(ae_dir, seq_dir, "--split", str(split)) == 2
        assert predict(ae_dir, seq_dir) == 0  # every sequence without a split
        n, t = VideoDataset.load(dataset_file).data.shape[:2]
        assert json.loads((tmp_path / "p" / "predict.json").read_text())["n_predictions"] == n * (t - 3)

    @pytest.mark.parametrize("corrupt", [
        lambda m: m["params"].pop("blk1_conv.b"),
        lambda m: m.update(model=[1]),
        lambda m: m["model"].pop("config"),
        lambda m: m["model"]["config"].update(bogus=1),
        lambda m: m.update(params=["x"]),
    ], ids=["missing-param", "model-list", "no-config", "unknown-config-key", "params-list"])
    def test_bench_and_extract_refuse_a_malformed_checkpoint(self, tmp_path, latents_file, capsys,
                                                             corrupt):
        ckpt = tmp_path / "seq"
        assert main(["train-seq", "--latents", str(latents_file), "--kind", "cnn3d",
                     "--hidden", "4", "--window", "3", "--epochs", "1", "--out", str(ckpt)]) == 0
        manifest = json.loads((ckpt / "manifest.json").read_text())
        corrupt(manifest)
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["bench", "--ckpt", str(ckpt), "--latents", str(latents_file),
                     "--iters", "30", "--warmup", "1"]) == 2
        assert main(["extract", "--ckpt", str(ckpt), "--dataset", str(latents_file),
                     "--out", str(tmp_path / "lat.npy")]) == 2
        err = capsys.readouterr().err
        assert err.count("error: ") == 2 and "Traceback" not in err


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """One valid input file or directory for every path flag of the CLI."""
    root = tmp_path_factory.mktemp("valid")
    paths = {name: str(root / name) for name in
             ("ds.npy", "split.json", "ae-ckpt", "lat.npy", "seq-ckpt", "grid.json", "frames.npy",
              "runs")}
    moving_sprites(4, length=6, size=16, sprite_size=5, seed=1).save(paths["ds.npy"])
    schedule = ["--epochs", "1", "--batch-size", "16"]
    assert main(["split", "--dataset", paths["ds.npy"], "--test", "0.25", "--val", "0.25",
                 "--out", paths["split.json"]]) == 0
    assert main(["train-ae", "--dataset", paths["ds.npy"], "--dims", "4,8", *schedule,
                 "--out", paths["ae-ckpt"]]) == 0
    assert main(["extract", "--ckpt", paths["ae-ckpt"], "--dataset", paths["ds.npy"],
                 "--out", paths["lat.npy"]]) == 0
    assert main(["train-seq", "--latents", paths["lat.npy"], "--kind", "cnn3d", "--hidden", "4",
                 "--window", "3", *schedule, "--out", paths["seq-ckpt"]]) == 0
    Path(paths["grid.json"]).write_text(json.dumps({"hidden_size": [4], "window": [3]}))
    write_array_file(paths["frames.npy"], np.zeros((2, 16, 16, 1), dtype=np.float32))
    (root / "runs").mkdir()
    (root / "runs" / "run0.json").write_text(json.dumps({"metrics": {"ssim": 0.5}}))
    return paths


# Each command with one path flag set to "BAD"; the file a directory flag
# is read through, or None for a file flag.
_PATH_FLAGS = {
    "ingest-npy": (["ingest", "--format", "npy", "--input", "BAD"], None),
    "ingest-pnm": (["ingest", "--format", "pnm-dir", "--input", "BAD"], "f00.pgm"),
    "split": (["split", "--dataset", "BAD"], None),
    "preprocess": (["preprocess", "--in", "BAD", "--len", "6", "--size", "16"], None),
    "train-ae-dataset": (["train-ae", "--dataset", "BAD", "--dims", "4,8"], None),
    "train-ae-split": (["train-ae", "--dataset", "ds.npy", "--dims", "4,8", "--split", "BAD"],
                       None),
    "extract-ckpt": (["extract", "--ckpt", "BAD", "--dataset", "ds.npy"], "manifest.json"),
    "extract-dataset": (["extract", "--ckpt", "ae-ckpt", "--dataset", "BAD"], None),
    "train-seq-latents": (["train-seq", "--latents", "BAD", "--kind", "cnn3d"], None),
    "train-seq-split": (["train-seq", "--latents", "lat.npy", "--kind", "cnn3d",
                         "--split", "BAD"], None),
    "predict-ae-ckpt": (["predict", "--ae-ckpt", "BAD", "--seq-ckpt", "seq-ckpt",
                         "--dataset", "ds.npy"], "manifest.json"),
    "predict-seq-ckpt": (["predict", "--ae-ckpt", "ae-ckpt", "--seq-ckpt", "BAD",
                          "--dataset", "ds.npy"], "manifest.json"),
    "predict-dataset": (["predict", "--ae-ckpt", "ae-ckpt", "--seq-ckpt", "seq-ckpt",
                         "--dataset", "BAD"], None),
    "predict-split": (["predict", "--ae-ckpt", "ae-ckpt", "--seq-ckpt", "seq-ckpt", "--dataset", "ds.npy",
                       "--split", "BAD"], None),
    "gridsearch-grid": (["gridsearch", "--stage", "seq", "--kind", "cnn3d", "--kfold", "2",
                         "--grid", "BAD", "--dataset", "lat.npy"], None),
    "gridsearch-dataset": (["gridsearch", "--stage", "seq", "--kind", "cnn3d", "--kfold", "2",
                            "--grid", "grid.json", "--dataset", "BAD"], None),
    "gridsearch-split": (["gridsearch", "--stage", "seq", "--kind", "cnn3d", "--kfold", "2",
                          "--grid", "grid.json", "--dataset", "lat.npy", "--split", "BAD"], None),
    "bench-ckpt": (["bench", "--ckpt", "BAD", "--latents", "lat.npy"], "manifest.json"),
    "bench-latents": (["bench", "--ckpt", "seq-ckpt", "--latents", "BAD"], None),
    "evaluate-pred": (["evaluate", "--pred", "BAD", "--truth", "frames.npy"], None),
    "evaluate-truth": (["evaluate", "--pred", "frames.npy", "--truth", "BAD"], None),
    "report": (["report", "--runs", "BAD"], "run0.json"),
}


@pytest.mark.parametrize("bad", ["wrong-kind", "missing", "garbage", "not-an-object"])
@pytest.mark.parametrize("command", sorted(_PATH_FLAGS))
def test_bad_path_input_exits_2_without_traceback(tmp_path, valid_inputs, capsys, command, bad):
    argv, inner = _PATH_FLAGS[command]
    path = tmp_path / "bad"
    content = {"garbage": b"\x93\xff\x00garbage{[", "not-an-object": b"[1]"}.get(bad)
    if bad == "wrong-kind":  # a directory for a file flag, a file for a directory flag
        path.write_bytes(b"[1]") if inner else path.mkdir()
    elif content is not None and inner:
        path.mkdir()
        (path / inner).write_bytes(content)
    elif content is not None:
        path.write_bytes(content)
    argv = [str(path) if a == "BAD" else valid_inputs.get(a, a) for a in argv]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_train_ae_refuses_a_malformed_split_file(tmp_path, valid_inputs, capsys):
    split = tmp_path / "split.json"
    split.write_text(json.dumps({"train_ids": [[1]], "val_ids": [], "test_ids": [], "seed": 0}))
    assert main(["train-ae", "--dataset", valid_inputs["ds.npy"], "--dims", "4,8", "--epochs", "1",
                 "--split", str(split), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: split file") and "Traceback" not in err


@pytest.mark.parametrize("edit", [lambda run: [run], lambda run: {**run, "bogus": 1}, None],
                         ids=["list", "unknown-key", "no-extra"])
def test_predict_reads_each_checkpoint_train_run(tmp_path, valid_inputs, capsys, edit):
    model, manifest = load_checkpoint(valid_inputs["seq-ckpt"])
    extra = edit and {"train_run": edit(manifest["extra"]["train_run"])}
    ckpt = save_checkpoint(tmp_path / "seq", model, extra=extra)
    code = main(["predict", "--ae-ckpt", valid_inputs["ae-ckpt"], "--seq-ckpt", str(ckpt),
                 "--dataset", valid_inputs["ds.npy"], "--out", str(tmp_path / "p")])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if edit is not None:
        assert code == 2 and err.startswith("error: ") and "extra.train_run" in err
        return
    assert code == 0
    doc = json.loads((tmp_path / "p" / "predict.json").read_text())
    assert doc["split"] is None and doc["seed"] == model.seed
    assert doc["seq_run"]["config"] == doc["config"]["sequence_model"]
    assert doc["seq_run"]["train_curve"] == [] and doc["seq_run"]["final_test_loss"] is not None


# Run files that are JSON objects but hold a field that report cannot read.
_BAD_RUNS = {
    "metrics-number": [{"metrics": 5}],
    "sequence-model-string": [{"config": {"sequence_model": "x"}}],
    "intervals-number": [{"intervals": 5}],
    "intervals-no-buckets": [{"intervals": {"buckets": []}}],
    "ssim-string": [{"metrics": {"ssim": "a"}}, {"metrics": {"ssim": 0.5}}],
}


@pytest.mark.parametrize("case", sorted(_BAD_RUNS))
def test_malformed_run_file_exits_2_without_traceback(tmp_path, capsys, case):
    runs_dir = tmp_path / "runs"
    runs_dir.mkdir()
    for i, run in enumerate(_BAD_RUNS[case]):
        (runs_dir / f"run{i}.json").write_text(json.dumps(run))
    assert main(["report", "--runs", str(runs_dir), "--out", str(tmp_path / "report.json"),
                 "--svg", str(tmp_path / "hist.svg")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: run file {runs_dir / 'run0.json'}") and "Traceback" not in err


# Each command with one option value the library refuses.
_BAD_VALUES = {
    "split-test": ["split", "--dataset", "ds.npy", "--test", "1.5"],
    "preprocess-len": ["preprocess", "--in", "ds.npy", "--len", "1", "--size", "16"],
    "preprocess-size": ["preprocess", "--in", "ds.npy", "--len", "6", "--size", "4"],
    "train-ae-lr": ["train-ae", "--dataset", "ds.npy", "--dims", "4,8", "--lr", "0"],
    "train-ae-batch-size": ["train-ae", "--dataset", "ds.npy", "--dims", "4,8",
                            "--batch-size", "0"],
    "train-ae-epochs": ["train-ae", "--dataset", "ds.npy", "--dims", "4,8", "--epochs", "-1"],
    "bench-iters": ["bench", "--ckpt", "seq-ckpt", "--latents", "lat.npy", "--iters", "10"],
}


@pytest.mark.parametrize("case", sorted(_BAD_VALUES))
def test_bad_option_value_exits_2_without_traceback(tmp_path, valid_inputs, capsys, case):
    argv = [valid_inputs.get(a, a) for a in _BAD_VALUES[case]]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


# Values a config refuses before anything trains or is written; run on a
# 6-sequence file, with one epoch where the command trains.
_REFUSED_VALUES = {
    "train-seq-hidden": ["train-seq", "--latents", "DATA", "--kind", "rnn", "--layers", "1",
                         "--hidden", "0", "--epochs", "1"],
    "train-ae-dims": ["train-ae", "--dataset", "DATA", "--dims", "0,8", "--epochs", "1"],
    "train-ae-patience": ["train-ae", "--dataset", "DATA", "--dims", "4,8", "--epochs", "1",
                          "--patience", "-1"],
    "preprocess-stratify": ["preprocess", "--in", "DATA", "--len", "6", "--size", "16",
                            "--stratify", "0"],
    "split-seed": ["split", "--dataset", "DATA", "--seed", "-1"],
    "train-seq-seed": ["train-seq", "--latents", "DATA", "--kind", "rnn", "--layers", "1",
                       "--epochs", "1", "--seed", "-1"],
    "preprocess-continuity": ["preprocess", "--in", "DATA", "--len", "2", "--size", "16",
                              "--continuity-report", os.devnull],
}


@pytest.fixture(scope="module")
def six_sequences(tmp_path_factory):
    path = tmp_path_factory.mktemp("six") / "ds.npy"
    moving_sprites(6, length=6, size=16, sprite_size=5, seed=1, labels=True).save(path)
    return str(path)


@pytest.mark.parametrize("case", sorted(_REFUSED_VALUES))
def test_refused_config_value_exits_2_without_traceback(tmp_path, six_sequences, capsys, case):
    argv = [six_sequences if a == "DATA" else a for a in _REFUSED_VALUES[case]]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


class _Handed(Exception):
    """Raised by a recorder that stands in for a library function."""


# Each command with its required values only, the library function its
# options go to, the arguments that function must receive (configs built from
# the required values alone) and its keywords that must not be passed at all.
# DATA is the 6-sequence file, whose default split leaves validation ids.
_LEFT_OUT = {
    "ingest-npy": (["ingest", "--input", "frames.npy", "--format", "npy"], "load_sequences_npy",
                   {}, {"time_axis", "sequence_length"}),
    "preprocess": (["preprocess", "--in", "ds.npy"], "preprocess_dataset",
                   {"spec": PreprocessSpec()}, set()),
    "train-ae": (["train-ae", "--dataset", "ds.npy"], "fit_autoencoder",
                 {"config": AutoencoderConfig(input_channels=1, input_size=16), "seed": 0,
                  "schedule": TrainSchedule()}, set()),
    "train-seq": (["train-seq", "--latents", "lat.npy", "--kind", "cnn3d"], "fit_predictor",
                  {"config": SeqModelConfig(kind="cnn3d"), "seed": 0,
                   "schedule": TrainSchedule()}, set()),
    "gridsearch-seq": (["gridsearch", "--stage", "seq", "--kind", "rnn", "--grid", "grid.json",
                        "--dataset", "lat.npy"], "grid_search_seq",
                       {"seed": 0, "schedule": TrainSchedule()}, {"k_folds", "jobs"}),
    "gridsearch-ae": (["gridsearch", "--stage", "ae", "--grid", "grid.json", "--dataset", "DATA"],
                      "grid_search_ae",
                      {"seed": 0, "schedule": TrainSchedule()}, {"jobs"}),
    "bench": (["bench", "--ckpt", "seq-ckpt", "--latents", "lat.npy"], "benchmark_inference",
              {}, {"warmup", "iters"}),
}


@pytest.mark.parametrize("case", sorted(_LEFT_OUT))
def test_left_out_options_take_the_library_defaults(tmp_path, valid_inputs, six_sequences,
                                                    monkeypatch, case):
    argv, target, expected, left_out = _LEFT_OUT[case]
    signature, calls = inspect.signature(getattr(cli, target)), []

    def record(*args, **kwargs):
        calls.append(signature.bind(*args, **kwargs).arguments)
        raise _Handed

    monkeypatch.setattr(cli, target, record)
    with pytest.raises(_Handed):
        main([*(six_sequences if a == "DATA" else valid_inputs.get(a, a) for a in argv),
              "--out", str(tmp_path / "out")])
    [passed] = calls
    assert {name: passed[name] for name in expected} == expected
    assert not left_out & passed.keys()


@pytest.mark.parametrize("grid, named", [({"bogus": [1]}, "bogus"), ({"loss": ["nope"]}, "nope"),
                                         ({"hidden_layers": [1], "hidden_size": ["x"]},
                                          "hidden_size")],
                         ids=["unknown-axis", "invalid-value", "invalid-type"])
@pytest.mark.parametrize("stage", ["seq", "ae"])
def test_bad_grid_exits_2_before_training(tmp_path, valid_inputs, dataset_file, capsys,
                                          monkeypatch, stage, grid, named):
    monkeypatch.setattr(experiment, "_map", lambda *args: pytest.fail("a grid point trained"))
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    out_dir = tmp_path / "gs"
    assert main(["gridsearch", "--stage", stage, "--kind", "rnn", "--kfold", "2",
                 "--grid", str(path),
                 "--dataset", valid_inputs["lat.npy"] if stage == "seq" else str(dataset_file),
                 "--epochs", "1", "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not (out_dir / "results.json").exists()


# Floats stay within +-2 (or nan, inf): a larger learning rate can make
# training diverge, which exits 3 by design.
_FLOAT = (st.floats(-2, 2) | st.sampled_from([math.nan, math.inf, -math.inf])).map(str)
_INT, _FLAG = st.integers(-3, 12).map(str), st.none()
_LIST = st.lists(st.integers(-3, 12), max_size=3).map(lambda v: ",".join(map(str, v)))
# a value of the wrong kind for most options: a float, a string, a comma
# list of integers (the empty list too), or no value at all
_WILD = _FLOAT | st.text(max_size=4) | _LIST | _FLAG
_LOSS = st.sampled_from(["l1", "mse", "msle", "rmse"])
_OPT = st.sampled_from(["adam", "rmsprop"])
_KIND = st.sampled_from(["rnn", "lstm", "gru", "cnn3d", "convlstm", "crnn"])
_SCHEDULE = {"--batch-size": _INT, "--patience": _INT}

# Every command's non-path options with a value of their own kind, and the
# inputs of the module fixtures: DATA is the 6-sequence file, other names
# are ``valid_inputs`` entries.
_FUZZED = {
    "ingest": (["--input", "frames.npy"],
               {"--format": st.sampled_from(["npy", "pnm-dir"]),
                "--channels": st.sampled_from(["1", "3"]), "--time-axis": _INT, "--length": _INT}),
    "split": (["--dataset", "DATA"], {"--test": _FLOAT, "--val": _FLOAT, "--seed": _INT}),
    "preprocess": (["--in", "DATA"],
                   {"--len": _INT, "--size": _INT, "--border-threshold": _FLOAT,
                    "--stratify": _INT, "--seed": _INT, "--binarize": _FLAG,
                    "--no-binarize": _FLAG, "--crop-borders": _FLAG}),
    "train-ae": (["--dataset", "DATA", "--epochs", "1"],
                 {"--dims": _LIST, "--loss": _LOSS, "--opt": _OPT, "--lr": _FLOAT,
                  "--seed": _INT, **_SCHEDULE}),
    "train-seq": (["--latents", "DATA", "--epochs", "1"],
                  {"--kind": _KIND, "--layers": _INT, "--hidden": _INT, "--window": _INT,
                   "--loss": _LOSS, "--opt": _OPT, "--lr": _FLOAT, "--seed": _INT,
                   **_SCHEDULE}),
    # --jobs stays at most 2, so that no draw starts a large process pool
    "gridsearch": (["--grid", "grid.json", "--dataset", "DATA", "--epochs", "1"],
                   {"--stage": st.sampled_from(["seq", "ae"]), "--kind": _KIND, "--kfold": _INT,
                    "--jobs": st.integers(-3, 2).map(str), "--seed": _INT, **_SCHEDULE}),
    "bench": (["--ckpt", "seq-ckpt", "--latents", "lat.npy"],
              {"--iters": st.integers(-3, 40).map(str), "--warmup": _INT}),
    "evaluate": (["--pred", "frames.npy", "--truth", "frames.npy"], {"--intervals": _FLAG}),
}
_REQUIRED = {"--format", "--kind", "--stage"}


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_drawn_option_values_exit_0_1_or_2_without_traceback(six_sequences, valid_inputs, data):
    command = data.draw(st.sampled_from(sorted(_FUZZED)))
    fixed, options = _FUZZED[command]
    argv = [command, *(six_sequences if a == "DATA" else valid_inputs.get(a, a) for a in fixed)]
    names = [o for o in sorted(options)
             if o in _REQUIRED or data.draw(st.booleans(), label=f"pass {o}")]
    # at most one value of the wrong kind, so that most argvs parse
    wild = data.draw(st.none() | st.sampled_from(names), label="wild") if names else None
    for option in names:
        value = data.draw(_WILD if option == wild else options[option], label=option)
        argv.append(option if value is None else f"{option}={value}")  # "=" passes "-inf" too
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main([*argv, "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


class TestEvaluateReport:
    def test_evaluate_and_report(self, tmp_path):
        rng = np.random.default_rng(0)
        truth = rng.random((6, 16, 16, 1)).astype(np.float32)
        pred = np.clip(truth + rng.normal(0, 0.08, truth.shape).astype(np.float32), 0, 1)
        p_pred, p_truth = tmp_path / "pred.npy", tmp_path / "truth.npy"
        write_array_file(p_pred, pred)
        write_array_file(p_truth, truth)
        out = tmp_path / "eval.json"
        code = main(["evaluate", "--pred", str(p_pred), "--truth", str(p_truth),
                     "--intervals", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc) >= {"mae", "mse", "ssim_mean", "ssim_scores", "intervals"}
        assert len(doc["ssim_scores"]) == 6
        assert sum(b["count"] for b in doc["intervals"]["buckets"]) == 6

        runs_dir = tmp_path / "runs"
        runs_dir.mkdir()
        (runs_dir / "run0.json").write_text(json.dumps(
            {"config": {"sequence_model": {"kind": "rnn"}}, "seed": 0,
             "metrics": {"ssim": 0.5, "mse": 0.1, "mae": 0.2, "kl": None},
             "intervals": doc["intervals"]}
        ))
        report = tmp_path / "report.json"
        svg = tmp_path / "hist.svg"
        code = main(["report", "--runs", str(runs_dir), "--out", str(report),
                     "--svg", str(svg)])
        assert code == 0
        assert json.loads(report.read_text())["comparison"][0]["model"] == "rnn"
        assert svg.read_text().startswith("<svg")

    def test_shape_mismatch_is_data_error(self, tmp_path):
        a, b = tmp_path / "a.npy", tmp_path / "b.npy"
        write_array_file(a, np.zeros((2, 16, 16, 1), dtype=np.float32))
        write_array_file(b, np.zeros((3, 16, 16, 1), dtype=np.float32))
        assert main(["evaluate", "--pred", str(a), "--truth", str(b),
                     "--out", str(tmp_path / "o.json")]) == 2


def test_every_command_is_dispatched_and_documented():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cli_block = readme.split("## CLI", 1)[1].split("\n## ", 1)[0]
    for command in sub.choices:
        assert command in _COMMANDS
        assert f"latentcast {command} " in cli_block, command
    assert set(_COMMANDS) == set(sub.choices)
