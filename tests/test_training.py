import numpy as np
import pytest

from latentcast.autoencoder import (AutoencoderConfig, build_autoencoder, decode, encode,
                                    train_autoencoder)
from latentcast.errors import ConfigError, InsufficientDataError, ShapeError, WindowError
from latentcast.nn.losses import loss
from latentcast.seqmodels import SeqModelConfig, build_seq_model, predict_next, train_seq_model
from latentcast.synthetic import moving_sprites
from latentcast.training import EVAL_BATCH, TrainSchedule, evaluate_loss, fit


@pytest.fixture(scope="module")
def windows():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(50, 3, 2, 2, 2)).astype(np.float32)
    y = rng.normal(size=(50, 2, 2, 2)).astype(np.float32)
    return x, y


def test_rmse_does_not_depend_on_batch_size(windows):
    x, y = windows
    model = build_seq_model(SeqModelConfig(kind="rnn", hidden_size=8, hidden_layers=1, window=3),
                            (2, 2, 2), 0)
    whole = loss("rmse", model.forward(x, train=False), y)
    for batch_size in (1, 7, 64):
        assert evaluate_loss(model, x, y, "rmse", batch_size) == pytest.approx(whole, rel=1e-6)


def _model_and_data(kind, windows):
    if kind == "autoencoder":
        frames = moving_sprites(4, length=6, size=16, sprite_size=5, seed=2).data
        frames = frames.reshape(-1, 16, 16, 1)
        config = AutoencoderConfig(dims=[4, 8], input_size=16, learning_rate=1.0)
        return build_autoencoder(config, 0), frames[:18], frames[:18], frames[18:], frames[18:]
    x, y = windows
    config = SeqModelConfig(kind=kind, hidden_size=4, hidden_layers=None if kind == "cnn3d" else 1,
                            window=3, learning_rate=0.3)
    return build_seq_model(config, (2, 2, 2), 1), x[:40], y[:40], x[40:], y[40:]


@pytest.mark.parametrize("kind", ["rnn", "cnn3d", "autoencoder"])
def test_final_val_loss_is_the_best_epochs_score(windows, kind):
    model, tr_x, tr_y, va_x, va_y = _model_and_data(kind, windows)
    schedule = TrainSchedule(batch_size=8, max_epochs=12, patience=0)
    run = fit(model, tr_x, tr_y, va_x, va_y, schedule)
    assert len(run.val_curve) < schedule.max_epochs  # the run stopped early
    assert run.final_val_loss == run.val_curve[run.best_epoch]
    # the restored snapshot scores exactly what its epoch scored
    assert evaluate_loss(model, va_x, va_y, model.config.loss, 8) == run.final_val_loss


@pytest.fixture(scope="module")
def entries():
    """Each single-item inference entry with its model and the shape of one item."""
    ae = build_autoencoder(AutoencoderConfig(dims=[4, 8], input_size=16), 0)
    seq = build_seq_model(
        SeqModelConfig(kind="convlstm", hidden_size=4, hidden_layers=1, window=3), (4, 4, 8), 0
    )
    return {
        "encode": (encode, ae, (16, 16, 1)),
        "decode": (decode, ae, (4, 4, 8)),
        "predict_next": (predict_next, seq, (3, 4, 4, 8)),
    }


@pytest.mark.parametrize("entry", ["encode", "decode", "predict_next"])
def test_single_item_equals_its_row_of_a_multi_chunk_batch(entries, entry):
    fn, model, shape = entries[entry]
    batch = np.random.default_rng(1).random((EVAL_BATCH + 1, *shape)).astype(np.float32)
    out = fn(model, batch)
    assert out.shape[0] == EVAL_BATCH + 1
    # the last item is a chunk of its own, so both calls run the same forward
    assert np.array_equal(fn(model, batch[-1]), out[-1])


@pytest.mark.parametrize("extra_axes", [-1, 2])
@pytest.mark.parametrize("entry", ["encode", "decode", "predict_next"])
def test_wrong_rank_is_shape_error(entries, entry, extra_axes):
    fn, model, shape = entries[entry]
    shape = shape[1:] if extra_axes < 0 else (1, 1, *shape)
    with pytest.raises(ShapeError):
        fn(model, np.zeros(shape, dtype=np.float32))


@pytest.mark.parametrize("changes", [{"batch_size": 0}, {"max_epochs": 0}, {"patience": -1},
                                     {"patience": 1.5}, {"batch_size": True}])
def test_schedule_fields_checked(changes):
    with pytest.raises(ConfigError):
        TrainSchedule(**changes)


@pytest.mark.parametrize("val", [False, True])
@pytest.mark.parametrize("kind", ["rnn", "cnn3d", "autoencoder"])
def test_entry_points_fill_final_train_loss_and_fit_does_not(windows, kind, val):
    """``fit`` leaves ``final_train_loss`` unset (it scores the training set
    only when that is also the validation set); the public entry points add
    the training score with the restored parameters, at the schedule's batch
    size."""
    model, tr_x, tr_y, va_x, va_y = _model_and_data(kind, windows)
    va_x, va_y = (va_x, va_y) if val else (None, None)
    schedule = TrainSchedule(batch_size=8, max_epochs=3, patience=0)
    initial = model.snapshot()
    run = fit(model, tr_x, tr_y, va_x, va_y, schedule)
    assert np.isnan(run.final_train_loss)
    model.restore(initial)
    if kind == "autoencoder":
        entry = train_autoencoder(model, tr_x, va_x, schedule)
    else:
        entry = train_seq_model(model, tr_x, tr_y, va_x, va_y, schedule)
    assert entry.final_val_loss.hex() == run.final_val_loss.hex()
    score = evaluate_loss(model, tr_x, tr_y, model.config.loss, schedule.batch_size)
    assert entry.final_train_loss.hex() == score.hex()


def test_empty_training_set_is_a_typed_error():
    model = build_autoencoder(AutoencoderConfig(dims=[2], input_size=4), 0)
    with pytest.raises(InsufficientDataError):
        train_autoencoder(model, np.zeros((0, 4, 4, 1), np.float32))
    seq = build_seq_model(SeqModelConfig(kind="rnn", hidden_size=2, hidden_layers=1, window=3),
                          (2, 2, 2), 0)
    with pytest.raises(WindowError):  # the stage-2 entry keeps its own error
        train_seq_model(seq, np.zeros((0, 3, 2, 2, 2), np.float32), np.zeros((0, 2, 2, 2)))


@pytest.mark.parametrize("loss_kind", ["mse", "rmse"])
def test_empty_set_scores_to_a_typed_error(windows, loss_kind):
    x, y = windows
    model = build_seq_model(SeqModelConfig(kind="rnn", hidden_size=4, hidden_layers=1, window=3),
                            (2, 2, 2), 0)
    with pytest.raises(InsufficientDataError):
        evaluate_loss(model, x[:0], y[:0], loss_kind)
