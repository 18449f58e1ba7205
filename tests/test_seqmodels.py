import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentcast.errors import ConfigError, ShapeError, WindowError
from latentcast.seqmodels import (
    LAYERED_KINDS,
    SeqModelConfig,
    SeqModelKind,
    build_seq_model,
    make_windows,
    predict_next,
    train_seq_model,
    window_dataset,
)
from latentcast.training import TrainSchedule

LATENT = (4, 4, 4)


def config_for(kind: SeqModelKind, window=3, hidden=8, **kw) -> SeqModelConfig:
    layers = 2 if kind in LAYERED_KINDS else None
    return SeqModelConfig(kind=kind, hidden_size=hidden, hidden_layers=layers, window=window, **kw)


class TestWindows:
    def test_window_counts_match_test_set_totals(self):
        seq = np.zeros((20, 2, 2, 1), dtype=np.float32)
        inputs, targets = make_windows(seq, 5)
        assert len(inputs) == 15
        assert 119 * len(inputs) == 1785
        inputs3, _ = make_windows(seq, 3)
        assert len(inputs3) == 17
        assert 119 * len(inputs3) == 2023

    def test_minimal_window(self):
        seq = np.arange(4, dtype=np.float32).reshape(4, 1, 1, 1)
        inputs, targets = make_windows(seq, 3)
        assert inputs.shape == (1, 3, 1, 1, 1)
        np.testing.assert_array_equal(inputs[0, :, 0, 0, 0], [0, 1, 2])
        assert targets[0, 0, 0, 0] == 3

    def test_window_error(self):
        with pytest.raises(WindowError):
            make_windows(np.zeros((5, 1, 1, 1), dtype=np.float32), 5)

    @settings(max_examples=40, deadline=None)
    @given(t=st.integers(2, 40), k=st.integers(1, 39))
    def test_count_identity(self, t, k):
        seq = np.zeros((t, 1, 1, 1), dtype=np.float32)
        if t <= k:
            with pytest.raises(WindowError):
                make_windows(seq, k)
        else:
            inputs, targets = make_windows(seq, k)
            assert len(inputs) == t - k
            assert len(targets) == t - k

    def test_window_dataset_tracks_owners(self):
        latents = np.zeros((3, 6, 2, 2, 1), dtype=np.float32)
        inputs, targets, owners = window_dataset(latents, 4)
        assert len(inputs) == 3 * 2
        assert owners.tolist() == [0, 0, 1, 1, 2, 2]


class TestConfig:
    def test_hidden_layers_required_for_recurrent(self):
        with pytest.raises(ConfigError):
            SeqModelConfig(kind="lstm", hidden_layers=None)

    def test_hidden_layers_rejected_for_depth_free(self):
        with pytest.raises(ConfigError):
            SeqModelConfig(kind="cnn3d", hidden_layers=2)

    def test_cnn3d_needs_window_three(self):
        with pytest.raises(ConfigError):
            SeqModelConfig(kind="cnn3d", window=2)

    @pytest.mark.parametrize("field, value", [
        ("hidden_size", 0), ("hidden_size", "x"), ("hidden_size", True), ("hidden_size", 2.0),
        ("hidden_layers", "1"), ("window", 0), ("window", False), ("learning_rate", 0.0),
        ("learning_rate", float("nan")), ("learning_rate", float("inf")), ("learning_rate", "x"),
    ])
    def test_numeric_fields_checked(self, field, value):
        with pytest.raises(ConfigError, match=field):
            SeqModelConfig(kind="rnn", **{"hidden_layers": 1, field: value})

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("shape", [(0, 2, 2), (2, 2, 0), (2, -1, 2), (2, 2)])
    @pytest.mark.parametrize("kind", list(SeqModelKind))
    def test_latent_shape_checked(self, kind, shape):
        with pytest.raises(ConfigError, match="latent"):
            build_seq_model(config_for(kind), shape, seed=0)

    def test_all_paper_kinds_enumerated(self):
        assert {k.value for k in SeqModelKind} == {
            "rnn", "lstm", "gru", "cnn3d", "convlstm", "crnn",
        }


class TestPredictors:
    @pytest.mark.parametrize("kind", list(SeqModelKind))
    def test_output_shape_preserved(self, kind):
        model = build_seq_model(config_for(kind), LATENT, seed=0)
        x = np.random.default_rng(0).normal(size=(2, 3, *LATENT)).astype(np.float32)
        y = predict_next(model, x)
        assert y.shape == (2, *LATENT)

    @pytest.mark.parametrize("kind", list(SeqModelKind))
    def test_untrained_finite_and_deterministic(self, kind):
        model = build_seq_model(config_for(kind), LATENT, seed=1)
        x = np.random.default_rng(1).normal(size=(3, *LATENT)).astype(np.float32)
        a = predict_next(model, x)
        b = predict_next(model, x)
        assert np.isfinite(a).all()
        np.testing.assert_array_equal(a, b)

    def test_wrong_window_length(self):
        model = build_seq_model(config_for(SeqModelKind.LSTM, window=5), LATENT, seed=0)
        with pytest.raises(ShapeError):
            predict_next(model, np.zeros((2, 3, *LATENT), dtype=np.float32))

    @pytest.mark.parametrize("kind", list(SeqModelKind))
    def test_windows_independent_of_processing_order(self, kind):
        """Hidden state resets per window: predictions do not depend on what
        was processed before or alongside."""
        model = build_seq_model(config_for(kind), LATENT, seed=2)
        rng = np.random.default_rng(3)
        wins = rng.normal(size=(4, 3, *LATENT)).astype(np.float32)
        batch_all = predict_next(model, wins)
        reversed_batch = predict_next(model, wins[::-1].copy())
        np.testing.assert_array_equal(batch_all, reversed_batch[::-1])
        # batch size changes BLAS accumulation order; equality is approximate
        one_by_one = np.stack([predict_next(model, wins[i]) for i in range(4)])
        np.testing.assert_allclose(batch_all, one_by_one, atol=1e-5)

    def test_gru_parameter_count_closed_form(self):
        d = int(np.prod(LATENT))
        n = 16
        model = build_seq_model(
            SeqModelConfig(kind="gru", hidden_size=n, hidden_layers=1, window=3), LATENT, seed=0
        )
        gru_params = 3 * (n * n + n * n + n)  # cell input is the projected hidden vector
        projection = (d * n + n) + (n * d + d)
        assert model.param_count() == gru_params + projection

    # names and shapes of build_seq_model(cfg, (4, 4, 2), seed=0).params() with
    # hidden size 5, two hidden layers where the kind takes them and window 4:
    # checkpoints store exactly these arrays
    PARAM_TABLE = {
        "rnn": {
            "in_proj.w": (32, 5), "in_proj.b": (5,),
            "cell0.wx": (5, 5), "cell0.wh": (5, 5), "cell0.b": (5,),
            "cell1.wx": (5, 5), "cell1.wh": (5, 5), "cell1.b": (5,),
            "out_proj.w": (5, 32), "out_proj.b": (32,),
        },
        "lstm": {
            "in_proj.w": (32, 5), "in_proj.b": (5,),
            "cell0.wx": (5, 20), "cell0.wh": (5, 20), "cell0.b": (20,),
            "cell1.wx": (5, 20), "cell1.wh": (5, 20), "cell1.b": (20,),
            "out_proj.w": (5, 32), "out_proj.b": (32,),
        },
        "gru": {
            "in_proj.w": (32, 5), "in_proj.b": (5,),
            "cell0.wx": (5, 15), "cell0.wh": (5, 15), "cell0.b": (15,),
            "cell1.wx": (5, 15), "cell1.wh": (5, 15), "cell1.b": (15,),
            "out_proj.w": (5, 32), "out_proj.b": (32,),
        },
        "cnn3d": {
            "blk0_conv.w": (3, 3, 3, 2, 5), "blk0_conv.b": (5,),
            "blk1_conv.w": (2, 3, 3, 5, 2), "blk1_conv.b": (2,),
        },
        "convlstm": {
            "cell0.w": (3, 3, 7, 20), "cell0.b": (20,),
            "cell1.w": (3, 3, 10, 20), "cell1.b": (20,),
            "head.w": (1, 1, 5, 2), "head.b": (2,),
        },
        "crnn": {
            "feat_conv.w": (3, 3, 2, 5), "feat_conv.b": (5,),
            "rec.w": (3, 3, 10, 5), "rec.b": (5,),
            "head.w": (1, 1, 5, 2), "head.b": (2,),
        },
    }

    @pytest.mark.parametrize("kind", list(SeqModelKind))
    @pytest.mark.parametrize("activation", ["linear", "sigmoid"])
    def test_checkpoint_parameter_table(self, kind, activation):
        cfg = SeqModelConfig(kind=kind, hidden_size=5, window=4, output_activation=activation,
                             hidden_layers=2 if kind in LAYERED_KINDS else None)
        params = build_seq_model(cfg, (4, 4, 2), seed=0).params()
        assert list(params) == list(self.PARAM_TABLE[kind.value])
        assert {k: v.shape for k, v in params.items()} == self.PARAM_TABLE[kind.value]

    def test_sigmoid_head_bounds_output(self):
        cfg = config_for(SeqModelKind.CONVLSTM, output_activation="sigmoid")
        model = build_seq_model(cfg, LATENT, seed=0)
        x = np.random.default_rng(0).normal(size=(2, 3, *LATENT)).astype(np.float32)
        y = predict_next(model, x)
        assert y.min() >= 0.0 and y.max() <= 1.0


class TestTraining:
    def test_constant_sequence_memorized(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=LATENT).astype(np.float32)
        seq = np.repeat(m[None], 10, axis=0)
        inputs, targets = make_windows(seq, 3)
        cfg = config_for(SeqModelKind.CONVLSTM, hidden=16, learning_rate=0.01)
        model = build_seq_model(cfg, LATENT, seed=0)
        train_seq_model(
            model, inputs, targets,
            schedule=TrainSchedule(batch_size=8, max_epochs=150, patience=1000),
        )
        pred = predict_next(model, inputs[0])
        assert np.abs(pred - m).max() < 0.05

    def test_single_sample_memorized(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 3, *LATENT)).astype(np.float32)
        y = rng.normal(size=(1, *LATENT)).astype(np.float32)
        cfg = SeqModelConfig(kind="lstm", hidden_size=32, hidden_layers=1, window=3,
                             learning_rate=0.01)
        model = build_seq_model(cfg, LATENT, seed=0)
        run = train_seq_model(
            model, x, y, schedule=TrainSchedule(batch_size=1, max_epochs=500, patience=1000)
        )
        assert run.final_train_loss < 1e-3

    def test_same_seed_identical_curves(self):
        rng = np.random.default_rng(2)
        latents = rng.normal(size=(4, 8, *LATENT)).astype(np.float32)
        inputs, targets, _ = window_dataset(latents, 3)
        curves = []
        for _ in range(2):
            model = build_seq_model(config_for(SeqModelKind.GRU), LATENT, seed=11)
            run = train_seq_model(
                model, inputs, targets,
                schedule=TrainSchedule(batch_size=8, max_epochs=3, patience=10),
            )
            curves.append(run.train_curve)
        assert curves[0] == curves[1]

    def test_empty_samples_rejected(self):
        model = build_seq_model(config_for(SeqModelKind.RNN), LATENT, seed=0)
        with pytest.raises(WindowError):
            train_seq_model(model, np.zeros((0, 3, *LATENT), dtype=np.float32),
                            np.zeros((0, *LATENT), dtype=np.float32))
