import numpy as np
import pytest

from latentcast.autoencoder import (
    AutoencoderConfig,
    build_autoencoder,
    decode,
    encode,
    encode_dataset,
    train_autoencoder,
)
from latentcast.errors import ConfigError, ShapeError
from latentcast.nn import load_checkpoint, save_checkpoint
from latentcast.synthetic import moving_sprites
from latentcast.training import TrainSchedule, evaluate_loss


@pytest.fixture(scope="module")
def sprite_frames():
    ds = moving_sprites(4, length=8, size=32, seed=3)
    return ds.data.reshape(-1, 32, 32, 1)


class TestBuild:
    def test_bottleneck_deep_ladder(self):
        cfg = AutoencoderConfig(dims=[64, 128, 256])
        assert cfg.bottleneck_shape == (8, 8, 256)

    def test_bottleneck_shallow_ladder(self):
        cfg = AutoencoderConfig(dims=[32, 64, 128])
        assert cfg.bottleneck_shape == (8, 8, 128)

    def test_non_integral_bottleneck_rejected(self):
        with pytest.raises(ConfigError):
            AutoencoderConfig(dims=[8, 16, 32], input_size=36)

    @pytest.mark.parametrize("changes", [
        {"dims": [0, 8]}, {"dims": [4, "8"]}, {"dims": [4, 8.0]}, {"dims": [True, 8]},
        {"learning_rate": -1e-3}, {"learning_rate": float("nan")},
    ])
    def test_numeric_fields_checked(self, changes):
        with pytest.raises(ConfigError, match=next(iter(changes))):
            AutoencoderConfig(input_size=16, **{"dims": [4, 8], **changes})

    def test_state_is_encoder_then_decoder(self):
        model = build_autoencoder(AutoencoderConfig(dims=[4, 8], input_size=16), seed=5)
        for state in ("params", "buffers"):
            whole = getattr(model, state)()
            halves = {**getattr(model.encoder, state)(), **getattr(model.decoder, state)()}
            assert list(whole) == list(halves)
            assert all(whole[k] is halves[k] for k in whole)
        assert list(model.buffers()) == [
            f"{layer}_norm.{stat}" for layer in ("enc0", "enc1", "dec0")
            for stat in ("running_mean", "running_var")
        ]

    def test_untrained_output_in_unit_interval(self):
        model = build_autoencoder(AutoencoderConfig(dims=[4, 8], input_size=16), seed=0)
        x = np.random.default_rng(0).random((3, 16, 16, 1)).astype(np.float32)
        y = model.forward(x, train=False)
        assert y.min() >= 0.0 and y.max() <= 1.0
        assert y.shape == x.shape


@pytest.fixture(scope="module")
def model():
    return build_autoencoder(AutoencoderConfig(dims=[4, 8], input_size=32), seed=1)


class TestEncodeDecode:
    def test_encode_shape(self, model):
        z = encode(model, np.zeros((32, 32, 1), dtype=np.float32))
        assert z.shape == (8, 8, 8)

    def test_encode_finite_on_zero_frame(self, model):
        z = encode(model, np.zeros((32, 32, 1), dtype=np.float32))
        assert np.isfinite(z).all()

    def test_encode_deterministic(self, model):
        x = np.random.default_rng(2).random((32, 32, 1)).astype(np.float32)
        np.testing.assert_array_equal(encode(model, x), encode(model, x))

    def test_decode_shape_and_range(self, model):
        frame = decode(model, np.zeros((8, 8, 8), dtype=np.float32))
        assert frame.shape == (32, 32, 1)
        assert frame.min() >= 0.0 and frame.max() <= 1.0

    def test_decode_rejects_wrong_shape(self, model):
        with pytest.raises(ShapeError):
            decode(model, np.zeros((4, 4, 8), dtype=np.float32))

    def test_encode_rejects_wrong_channels(self, model):
        with pytest.raises(ShapeError):
            encode(model, np.zeros((32, 32, 3), dtype=np.float32))

    def test_round_trip_shapes(self, model):
        x = np.random.default_rng(3).random((2, 32, 32, 1)).astype(np.float32)
        z = encode(model, x)
        assert z.shape == (2, 8, 8, 8)
        back = decode(model, z)
        assert back.shape == x.shape

    def test_encode_dataset_layout(self, model):
        seqs = np.random.default_rng(4).random((3, 5, 32, 32, 1)).astype(np.float32)
        lat = encode_dataset(model, seqs)
        assert lat.shape == (3, 5, 8, 8, 8)
        np.testing.assert_array_equal(lat[1, 2], encode(model, seqs[1, 2]))


class TestTraining:
    def test_single_frame_memorization(self, sprite_frames):
        frames = np.repeat(sprite_frames[:1], 8, axis=0)
        cfg = AutoencoderConfig(dims=[8, 16], input_size=32, loss="mse", learning_rate=0.03)
        model = build_autoencoder(cfg, seed=0)
        train_autoencoder(
            model, frames, schedule=TrainSchedule(batch_size=8, max_epochs=200, patience=500)
        )
        assert evaluate_loss(model, frames, frames, "mse") < 1e-4

    def test_loss_curve_deterministic(self, sprite_frames):
        curves = []
        for _ in range(2):
            cfg = AutoencoderConfig(dims=[4, 8], input_size=32, learning_rate=0.003)
            model = build_autoencoder(cfg, seed=7)
            run = train_autoencoder(
                model,
                sprite_frames,
                schedule=TrainSchedule(batch_size=16, max_epochs=3, patience=10),
            )
            curves.append(run.train_curve)
        assert curves[0] == curves[1]

    def test_validation_tracked_and_best_restored(self, sprite_frames):
        cfg = AutoencoderConfig(dims=[4, 8], input_size=32)
        model = build_autoencoder(cfg, seed=0)
        run = train_autoencoder(
            model,
            sprite_frames[:24],
            sprite_frames[24:],
            TrainSchedule(batch_size=16, max_epochs=4, patience=10),
        )
        assert len(run.val_curve) == len(run.train_curve)
        assert run.best_epoch >= 0
        assert run.final_val_loss == pytest.approx(min(run.val_curve), rel=1e-6)


class TestCheckpoint:
    def test_reload_reproduces_encode_bitwise(self, tmp_path, sprite_frames):
        cfg = AutoencoderConfig(dims=[4, 8], input_size=32, learning_rate=0.003)
        model = build_autoencoder(cfg, seed=5)
        train_autoencoder(
            model, sprite_frames, schedule=TrainSchedule(batch_size=16, max_epochs=2, patience=5)
        )
        save_checkpoint(tmp_path / "ae", model)
        loaded, _ = load_checkpoint(tmp_path / "ae")
        x = sprite_frames[:4]
        np.testing.assert_array_equal(encode(model, x), encode(loaded, x))
        np.testing.assert_array_equal(
            model.forward(x, train=False), loaded.forward(x, train=False)
        )
