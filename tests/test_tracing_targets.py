"""The traced benchmark run (``perfbench/run.py --trace 1``) wraps package
objects by dotted path; every path must still resolve to a callable."""

import importlib.util
import sys
import types
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(tracing):
    assert tracing.TARGETS
    for _layer, path, _counters in tracing.TARGETS:
        mod_path, _, attr = path.rpartition(".")
        owner = tracing._resolve(mod_path)
        assert callable(getattr(owner, attr)), path


def test_benchmark_call_contract(tmp_path):
    """perfbench calls ``load_checkpoint(path)[0]`` for the model and unpacks
    three arrays from ``window_dataset``."""
    from latentcast.nn.network import Model, load_checkpoint, save_checkpoint
    from latentcast.seqmodels import SeqModelConfig, build_seq_model, window_dataset

    config = SeqModelConfig(kind="rnn", hidden_size=4, hidden_layers=1, window=3)
    save_checkpoint(tmp_path / "ckpt", build_seq_model(config, (2, 2, 1), seed=0))
    assert isinstance(load_checkpoint(tmp_path / "ckpt")[0], Model)
    out = window_dataset(np.zeros((1, 6, 2, 2, 1), dtype=np.float32), 3)
    assert len(out) == 3 and all(isinstance(a, np.ndarray) for a in out)


def wrapped_names():
    """Every function of a package module or class that wraps another."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.partition(".")[0] == "latentcast":
            for name, value in vars(mod).items():
                owners = [(name, value)]
                if isinstance(value, type) and value.__module__.startswith("latentcast"):
                    owners += [(f"{name}.{k}", v) for k, v in vars(value).items()]
                found += [f"{mod_name}.{n}" for n, v in owners
                          if isinstance(v, types.FunctionType) and hasattr(v, "__wrapped__")]
    return found


@pytest.mark.parametrize("kind, layers, cell", [
    ("convlstm", 2, "ConvLSTMCell"),
    ("crnn", None, "ConvElmanCell"),
    ("lstm", 1, "LSTMCell"),
    ("rnn", 1, "ElmanCell"),
])
def test_cell_spans_count_only_their_own_class(tracing, kind, layers, cell):
    """The Elman and LSTM rules are shared by vector and conv cells; each
    traced class must still count only its own steps, and uninstalling must
    leave no wrapper behind."""
    from latentcast.seqmodels import SeqModelConfig, build_seq_model

    config = SeqModelConfig(kind=kind, hidden_size=4, hidden_layers=layers, window=3)
    model = build_seq_model(config, (4, 4, 3), seed=0)
    x = np.random.default_rng(0).random((2, 3, 4, 4, 3)).astype(np.float32)
    before = wrapped_names()
    rec = tracing.Recorder()
    rec.install()
    try:
        assert len(wrapped_names()) > len(before)
        model.backward(np.ones_like(model.forward(x, train=True)))
    finally:
        rec.uninstall()
    spans = {name.removeprefix("nn.cells."): calls
             for name, (calls, _) in rec.self_times().items() if name.startswith("nn.cells.")}
    steps = 3 * (layers or 1)
    assert spans == {f"{cell}.step": steps, f"{cell}.backstep": steps}
    assert wrapped_names() == before


@pytest.mark.parametrize("k_folds", [2, 3])
def test_kfold_trains_every_fold_through_the_traced_fit(tracing, k_folds):
    """perfbench counts ``training.fit.epochs`` on the wrapped ``training.fit``,
    so ``kfold_validate`` must train each fold through it, and score only the
    validation windows: one ``evaluate_loss`` per epoch."""
    from latentcast.experiment import kfold_validate
    from latentcast.seqmodels import SeqModelConfig
    from latentcast.training import TrainSchedule

    config = SeqModelConfig(kind="rnn", hidden_size=4, hidden_layers=1, window=3)
    latents = np.random.default_rng(0).normal(size=(4, 6, 2, 2, 1)).astype(np.float32)
    schedule = TrainSchedule(batch_size=4, max_epochs=2, patience=5)
    rec = tracing.Recorder()
    rec.install()
    try:
        kfold_validate(config, latents, k_folds, seed=0, schedule=schedule)
    finally:
        rec.uninstall()
    spans = rec.self_times()
    assert spans["training.fit"][0] == k_folds
    assert rec.counters["training.fit.epochs"] == k_folds * schedule.max_epochs
    assert spans["training.evaluate_loss"][0] == k_folds * schedule.max_epochs
