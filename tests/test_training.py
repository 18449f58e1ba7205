import numpy as np
import pytest

from latentcast.autoencoder import AutoencoderConfig, build_autoencoder
from latentcast.nn.losses import loss
from latentcast.seqmodels import SeqModelConfig, build_seq_model
from latentcast.synthetic import moving_sprites
from latentcast.training import TrainSchedule, evaluate_loss, fit


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
