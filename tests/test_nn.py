import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentcast.autoencoder import AutoencoderConfig, build_autoencoder
from latentcast.dataio import write_array_file
from latentcast.errors import (
    CheckpointError,
    ConfigError,
    LatentcastError,
    NonFiniteGradientError,
    ShapeError,
)
from latentcast.nn import (
    Adam,
    BatchNorm,
    Conv2D,
    Conv3D,
    ConvTranspose2D,
    Dense,
    ElmanCell,
    LeakyReLU,
    LossKind,
    RMSProp,
    Recurrence,
    Sequential,
    Sigmoid,
    he_normal,
    load_checkpoint,
    loss,
    loss_with_grad,
    make_optimizer,
    save_checkpoint,
)
from latentcast.seqmodels import SeqModelConfig, build_seq_model


def init_all(model, seed=0, slope=0.01, dtype=np.float32):
    rng = np.random.default_rng(seed)
    for m in model.modules():
        m.init_params(rng, slope, dtype=dtype)
    return model


class TestShapeLaw:
    def test_conv_halves_spatial(self):
        layer = Conv2D("c", 1, 64)
        init_all(Sequential([layer]))
        y = layer.forward(np.zeros((2, 64, 64, 1), dtype=np.float32))
        assert y.shape == (2, 32, 32, 64)

    def test_transpose_doubles_spatial(self):
        layer = ConvTranspose2D("ct", 256, 128)
        init_all(Sequential([layer]))
        y = layer.forward(np.zeros((1, 8, 8, 256), dtype=np.float32))
        assert y.shape == (1, 16, 16, 128)

    @settings(max_examples=10, deadline=None)
    @given(depth=st.integers(1, 3), half_steps=st.integers(0, 2))
    def test_stack_halves_then_mirrors(self, depth, half_steps):
        size = 8 * (2**half_steps) * (2**depth)
        enc = []
        dec = []
        cin = 1
        for i in range(depth):
            enc.append(Conv2D(f"e{i}", cin, 4))
            dec.insert(0, ConvTranspose2D(f"d{i}", 4, cin))
            cin = 4
        model = init_all(Sequential(enc + dec))
        x = np.zeros((1, size, size, 1), dtype=np.float32)
        mid = x
        for layer in enc:
            mid = layer.forward(mid)
        assert mid.shape[1] == size // (2**depth)
        out = model.forward(x)
        assert out.shape == x.shape

    def test_shape_error_names_layer(self):
        layer = Dense("proj", 8, 4)
        init_all(Sequential([layer]))
        with pytest.raises(ShapeError, match="proj"):
            layer.forward(np.zeros((2, 9), dtype=np.float32))

    def test_leaky_relu_values(self):
        layer = LeakyReLU("a", 0.2)
        y = layer.forward(np.array([-1.0, 1.0], dtype=np.float32))
        np.testing.assert_allclose(y, [-0.2, 1.0])

    @pytest.mark.parametrize("slope", [-0.01, 1.5, float("nan")])
    def test_leaky_slope_outside_unit_interval_rejected(self, slope):
        from latentcast.autoencoder import AutoencoderConfig, build_autoencoder
        from latentcast.seqmodels import SeqModelConfig, build_seq_model

        with pytest.raises(ConfigError, match="slope"):
            LeakyReLU("a", slope)
        with pytest.raises(ConfigError, match="slope"):
            build_autoencoder(AutoencoderConfig(dims=[4], input_size=8, leaky_slope=slope), 0)
        config = SeqModelConfig(kind="crnn", hidden_size=4, window=3, leaky_slope=slope)
        with pytest.raises(ConfigError, match="slope"):
            build_seq_model(config, (4, 4, 2), 0)


class TestLosses:
    @pytest.mark.parametrize("kind", list(LossKind))
    def test_identity_is_zero(self, kind):
        x = np.random.default_rng(0).normal(size=(3, 4)).astype(np.float32)
        assert loss(kind, x, x) == 0.0

    def test_hand_values(self):
        pred = np.array([1.0, 0.0], dtype=np.float32)
        target = np.zeros(2, dtype=np.float32)
        assert loss(LossKind.L1, pred, target) == pytest.approx(0.5)
        assert loss(LossKind.MSE, pred, target) == pytest.approx(0.5)
        assert loss(LossKind.RMSE, pred, target) == pytest.approx(np.sqrt(0.5), abs=1e-7)

    def test_msle_hand_value(self):
        pred = np.array([np.e - 1.0])
        target = np.array([0.0])
        assert loss(LossKind.MSLE, pred, target) == pytest.approx(1.0, abs=1e-12)

    def test_rmse_grad_is_mse_grad_over_2rmse(self):
        rng = np.random.default_rng(1)
        pred = rng.normal(size=10)
        target = rng.normal(size=10)
        rmse, g_rmse = loss_with_grad(LossKind.RMSE, pred, target)
        _, g_mse = loss_with_grad(LossKind.MSE, pred, target)
        np.testing.assert_allclose(g_rmse, g_mse / (2 * rmse), rtol=1e-10)

    def test_msle_clamps_negative_operands(self):
        value, grad = loss_with_grad(LossKind.MSLE, np.array([-0.5]), np.array([-0.2]))
        assert value == 0.0
        assert grad[0] == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            loss(LossKind.MSE, np.zeros(3), np.zeros(4))


class TestHeInit:
    def test_classic_variance_at_zero_slope(self):
        rng = np.random.default_rng(0)
        w = he_normal((1000, 1000), fan_in=1000, slope=0.0, rng=rng)
        assert w.var() == pytest.approx(2.0 / 1000, rel=0.05)

    def test_leaky_adapted_variance(self):
        target = 2.0 / (1.0001 * 1000)
        variances = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            w = he_normal((1000, 1000), fan_in=1000, slope=0.01, rng=rng)
            variances.append(w.var())
        assert np.mean(variances) == pytest.approx(target, rel=0.05)

    def test_bias_exactly_zero(self):
        layer = Dense("d", 16, 8)
        layer.init_params(np.random.default_rng(0), 0.01)
        assert np.all(layer.params["b"] == 0.0)

    def test_deterministic_in_seed(self):
        a = he_normal((64,), 32, 0.01, np.random.default_rng(5))
        b = he_normal((64,), 32, 0.01, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)


class TestOptimizers:
    def test_adam_first_step_is_minus_lr(self):
        params = {"w": np.zeros(1, dtype=np.float64)}
        grads = {"w": np.ones(1, dtype=np.float64)}
        opt = Adam(learning_rate=0.001)
        opt.step(params, grads)
        assert params["w"][0] == pytest.approx(-0.001, abs=1e-9)

    def test_rmsprop_hand_step(self):
        params = {"w": np.zeros(1, dtype=np.float64)}
        grads = {"w": np.full(1, 2.0)}
        opt = RMSProp(learning_rate=0.01, alpha=0.99)
        opt.step(params, grads)
        assert opt.state["w"]["sq"][0] == pytest.approx(0.04, abs=1e-12)
        assert params["w"][0] == pytest.approx(-0.1, abs=1e-7)

    @pytest.mark.parametrize("kind", ["adam", "rmsprop"])
    def test_zero_gradient_leaves_params(self, kind):
        params = {"w": np.full(3, 1.5, dtype=np.float32)}
        opt = make_optimizer(kind, 0.01)
        opt.step(params, {"w": np.zeros(3, dtype=np.float32)})
        np.testing.assert_array_equal(params["w"], np.full(3, 1.5, dtype=np.float32))

    def test_nonfinite_gradient_aborts(self):
        opt = Adam(0.001)
        with pytest.raises(NonFiniteGradientError):
            opt.step({"w": np.zeros(2)}, {"w": np.array([1.0, np.nan])})

    def test_bad_learning_rate(self):
        with pytest.raises(ValueError):
            Adam(0.0)


def _old_adam_update(p, g, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The update with a temporary per operation, as first written."""
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    m_hat = m / (1.0 - b1**t)
    v_hat = v / (1.0 - b2**t)
    p -= (lr * m_hat / (np.sqrt(v_hat) + eps)).astype(p.dtype, copy=False)


def _old_rmsprop_update(p, g, s, lr, alpha=0.99, eps=1e-8):
    s *= alpha
    s += (1.0 - alpha) * g * g
    p -= (lr * g / (np.sqrt(s) + eps)).astype(p.dtype, copy=False)


class TestKernelEquivalence:
    """The in-place kernels against the plain formulas they replace."""

    @pytest.mark.parametrize("slope", [0.0, 0.01, 0.2, 1 / 3, 0.7, 1.0])
    def test_leaky_relu_bitwise_equals_where(self, slope):
        from latentcast.nn import functional as F

        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 5, 5, 3)).astype(np.float32)
        x.flat[:4] = [0.0, -0.0, 1e30, -1e30]
        dy = rng.normal(size=x.shape).astype(np.float32)
        dy.flat[4:8] = [0.0, -0.0, 1e30, -1e30]
        y, cache = F.leaky_relu_forward(x, slope)
        assert y.tobytes() == np.where(x > 0, x, slope * x).tobytes()
        dx = F.leaky_relu_backward(dy, cache, slope)
        assert dx.dtype == np.float32
        assert dx.tobytes() == np.where(x > 0, dy, slope * dy).tobytes()

    def test_sigmoid_range_and_accuracy(self):
        from latentcast.nn import functional as F

        x = np.concatenate([np.linspace(-100, 100, 20001), [-100.0, 100.0, 0.0]])
        y = F.sigmoid(x.astype(np.float32))
        assert y.dtype == np.float32
        assert y.min() >= 0.0 and y.max() <= 1.0
        assert y[-3] == 0.0 and y[-2] == 1.0 and y[-1] == 0.5
        ref = 1.0 / (1.0 + np.exp(-x))
        # absolute error within 2 float32 ulp of 1.0, the top of the range
        assert np.abs(y - ref).max() <= 2 * np.finfo(np.float32).eps

    @pytest.mark.parametrize("kind", ["adam", "rmsprop"])
    def test_optimizer_bitwise_equals_plain_update(self, kind):
        rng = np.random.default_rng(0)
        shapes = {"w": (40, 30), "b": (30,), "k": (3, 3, 2, 4), "s": ()}
        params = {k: rng.normal(size=s).astype(np.float32) for k, s in shapes.items()}
        ref = {k: v.copy() for k, v in params.items()}
        slots = {k: (np.zeros_like(v), np.zeros_like(v)) for k, v in ref.items()}
        opt = make_optimizer(kind, 0.01)
        for t in range(1, 6):
            grads = {k: rng.normal(size=s).astype(np.float32) for k, s in shapes.items()}
            opt.step(params, grads)
            for k, g in grads.items():
                if kind == "adam":
                    _old_adam_update(ref[k], g, *slots[k], t, 0.01)
                else:
                    _old_rmsprop_update(ref[k], g, slots[k][0], 0.01)
        for k in shapes:
            assert params[k].tobytes() == ref[k].tobytes()
            first = opt.state[k]["m" if kind == "adam" else "sq"]
            assert first.tobytes() == slots[k][0].tobytes()
        assert all(set(s) <= {"m", "v", "sq"} for s in opt.state.values())


class TestConvKernelPair:
    """The three convolutions share one im2col/col2im pair."""

    @pytest.mark.parametrize("k, output_padding", [(3, 1), (4, 0)])
    def test_transposed_conv_is_conv_input_gradient(self, k, output_padding):
        from latentcast.nn import functional as F

        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 8, 10, 3)).astype(np.float32)
        w = rng.normal(size=(k, k, 3, 5)).astype(np.float32)
        y, cache = F.conv2d_forward(x, w, np.zeros(5, np.float32), 2, 1)
        dy = rng.normal(size=y.shape).astype(np.float32)
        dx = F.conv2d_backward(dy, cache, w)[0]
        adj = F.conv_transpose2d_forward(
            dy, w.transpose(0, 1, 3, 2), np.zeros(3, np.float32), 2, 1, output_padding
        )[0]
        assert adj.shape == dx.shape == x.shape
        assert adj.tobytes() == dx.tobytes()

    @pytest.mark.parametrize("p", [0, 1])
    def test_depth_one_conv3d_is_conv2d_per_frame(self, p):
        from latentcast.nn import functional as F

        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 4, 7, 6, 3)).astype(np.float32)
        w = rng.normal(size=(1, 3, 3, 3, 5)).astype(np.float32)
        b = rng.normal(size=5).astype(np.float32)
        y3 = F.conv3d_forward(x, w, b, (0, p, p))[0]
        y2 = F.conv2d_forward(x.reshape(8, 7, 6, 3), w[0], b, 1, p)[0]
        np.testing.assert_allclose(y3, y2.reshape(y3.shape), rtol=1e-6)


class TestBatchNorm:
    def test_train_mode_moments(self):
        layer = BatchNorm("bn", 6)
        layer.init_params(np.random.default_rng(0), 0.0)
        x = np.random.default_rng(1).normal(2.0, 3.0, size=(64, 8, 8, 6)).astype(np.float32)
        y = layer.forward(x, train=True)
        mean = y.mean(axis=(0, 1, 2))
        var = y.var(axis=(0, 1, 2))
        assert np.abs(mean).max() < 1e-5
        assert np.abs(var - 1.0).max() < 1e-3

    def test_eval_uses_running_stats(self):
        layer = BatchNorm("bn", 2)
        layer.init_params(np.random.default_rng(0), 0.0)
        x = np.random.default_rng(1).normal(5.0, 2.0, size=(32, 2)).astype(np.float32)
        for _ in range(200):
            layer.forward(x, train=True)
        y = layer.forward(x, train=False)
        assert np.abs(y.mean(axis=0)).max() < 0.05

    def test_cast_retypes_running_statistics(self):
        model = init_all(Sequential([Conv2D("c", 1, 2), BatchNorm("bn", 2)])).cast(np.float64)
        layer = model.layers[1]
        assert layer.running_mean.dtype == layer.running_var.dtype == np.float64
        assert {v.dtype for v in model.buffers().values()} == {np.dtype(np.float64)}
        x = np.random.default_rng(0).random((2, 4, 4, 1))
        assert model.forward(x, train=False).dtype == np.float64


def tiny_ae_like(seed=0):
    model = Sequential(
        [
            Conv2D("e0", 1, 4),
            BatchNorm("e0n", 4),
            LeakyReLU("e0a", 0.01),
            ConvTranspose2D("d0", 4, 1),
            Sigmoid("d0s"),
        ]
    )
    return init_all(model, seed=seed)


def short_training(model, opt, x, steps=6, rng=None):
    rng = rng or np.random.default_rng(0)
    for _ in range(steps):
        idx = rng.permutation(len(x))[:4]
        model.zero_grads()
        pred = model.forward(x[idx], train=True)
        _, d = loss_with_grad(LossKind.MSE, pred, x[idx])
        model.backward(d)
        opt.step(model.params(), model.grads())


class TestDeterminismAndCheckpoints:
    def test_identical_seed_bitwise_identical_params(self):
        x = np.random.default_rng(3).random((16, 8, 8, 1)).astype(np.float32)
        results = []
        for _ in range(2):
            model = tiny_ae_like(seed=9)
            short_training(model, Adam(1e-3), x, rng=np.random.default_rng(1))
            results.append({k: v.copy() for k, v in model.params().items()})
        for k in results[0]:
            np.testing.assert_array_equal(results[0][k], results[1][k])

    def test_checkpoint_round_trip_bitwise(self, tmp_path):
        model = tiny_ae_like(seed=2)
        x = np.random.default_rng(0).random((4, 8, 8, 1)).astype(np.float32)
        short_training(model, Adam(1e-3), x)
        model.spec = lambda: {"model_kind": "__tiny__"}  # registered below
        from latentcast.nn.network import register_model_kind

        register_model_kind("__tiny__", lambda spec: tiny_ae_like(seed=2))
        save_checkpoint(tmp_path / "ckpt", model)
        loaded, _ = load_checkpoint(tmp_path / "ckpt")
        for k, v in model.params().items():
            np.testing.assert_array_equal(loaded.params()[k], v)
        y1 = model.forward(x, train=False)
        y2 = loaded.forward(x, train=False)
        np.testing.assert_array_equal(y1, y2)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        import latentcast.nn.network as network

        network.register_model_kind("__tiny4__", lambda spec: tiny_ae_like(seed=2))
        model = tiny_ae_like(seed=2)
        model.spec = lambda: {"model_kind": "__tiny4__"}
        save_checkpoint(tmp_path / "ckpt", model)
        before = {k: v.copy() for k, v in model.params().items()}
        for v in model.params().values():
            v += 1.0
        calls = []
        real_write = network.write_array_file

        def failing_write(path, arr):
            calls.append(path)
            if len(calls) == 2:
                raise OSError("disk full")
            real_write(path, arr)

        monkeypatch.setattr(network, "write_array_file", failing_write)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(tmp_path / "ckpt", model)
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]
        loaded, _ = load_checkpoint(tmp_path / "ckpt")
        for k, v in before.items():
            np.testing.assert_array_equal(loaded.params()[k], v)
        save_checkpoint(tmp_path / "ckpt", model)
        loaded, _ = load_checkpoint(tmp_path / "ckpt")
        for k, v in model.params().items():
            np.testing.assert_array_equal(loaded.params()[k], v)

    def test_save_refuses_a_directory_that_is_not_a_checkpoint(self, tmp_path):
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "keep.txt").write_text("user file")
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            save_checkpoint(tmp_path / "data", tiny_ae_like())
        assert (tmp_path / "data" / "keep.txt").read_text() == "user file"

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda m, d: m["params"].pop("e0.b"), "missing"),
            (lambda m, d: m["buffers"].pop("e0n.running_var"), "missing"),
            (lambda m, d: m["params"].update({"ghost.w": m["params"]["e0.w"]}), "unknown"),
            (lambda m, d: m["params"].update({"e0.w": m["params"]["e0.b"]}), "shape"),
            (lambda m, d: m["buffers"].update({"e0n.running_var": m["params"]["e0.w"]}), "shape"),
            (lambda m, d: _retype(d / m["params"]["e0.w"], np.float64), "float64"),
            (lambda m, d: _retype(d / m["buffers"]["e0n.running_var"], np.uint8), "uint8"),
            (lambda m, d: m["params"].update(
                {"e0.w": "../" + Path(shutil.copy(d / m["params"]["e0.w"], d.parent)).name}), "file names"),
        ],
        ids=["missing-param", "missing-buffer", "unknown-param", "param-shape", "buffer-shape",
             "float64-file", "uint8-file", "outside-path"],
    )
    def test_load_refuses_manifest_that_differs_from_model(self, tmp_path, corrupt, message):
        from latentcast.nn.network import register_model_kind

        register_model_kind("__tiny3__", lambda spec: tiny_ae_like(seed=2))
        model = tiny_ae_like(seed=2)
        model.spec = lambda: {"model_kind": "__tiny3__"}
        save_checkpoint(tmp_path / "ckpt", model)
        path = tmp_path / "ckpt" / "manifest.json"
        manifest = json.loads(path.read_text())
        corrupt(manifest, tmp_path / "ckpt")
        path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(tmp_path / "ckpt")


def _retype(path, dtype):
    """Rewrite an array file with the same values in another dtype."""
    write_array_file(path, np.load(path).astype(dtype))


def _json_paths(node, path=()):
    """The key path of every value in a JSON document, the root first."""
    yield path
    if isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _json_paths(value, (*path, key))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


# small integers, so a mutated size cannot allocate a large model
_JSON_VALUES = (st.integers(-3, 12) | st.floats(allow_nan=False, allow_infinity=False)
                | st.text(max_size=6) | st.booleans() | st.none()
                | st.lists(st.integers(-3, 12), max_size=3)
                | st.dictionaries(st.text(max_size=4), st.integers(-3, 12), max_size=2))


class TestCheckpointFuzz:
    """A mutated checkpoint directory loads exactly the saved arrays or
    raises one of the package's typed errors."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        config = SeqModelConfig(kind="rnn", hidden_size=3, hidden_layers=1, window=2)
        model = build_seq_model(config, (2, 2, 2), seed=0)
        return save_checkpoint(tmp_path_factory.mktemp("fuzz") / "ckpt", model), model.snapshot()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_mutations(self, saved, data):
        source, arrays = saved
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(shutil.copytree(source, Path(tmp) / "ckpt"))
            doc = {"manifest": json.loads((path / "manifest.json").read_text())}
            for _ in range(data.draw(st.integers(1, 3))):
                op = data.draw(st.sampled_from(["replace", "drop", "add-key", "array"]))
                paths = list(_json_paths(doc["manifest"], ("manifest",)))
                keys = [p for p in paths[1:] if isinstance(_at(doc, p[:-1]), dict)]
                dicts = [_at(doc, p) for p in paths if isinstance(_at(doc, p), dict)]
                if op == "replace":
                    where = data.draw(st.sampled_from(paths))
                    _at(doc, where[:-1])[where[-1]] = data.draw(_JSON_VALUES)
                elif op == "drop" and keys:
                    where = data.draw(st.sampled_from(keys))
                    del _at(doc, where[:-1])[where[-1]]
                elif op == "add-key" and dicts:
                    node = data.draw(st.sampled_from(dicts))
                    node[data.draw(st.text(min_size=1, max_size=6))] = data.draw(_JSON_VALUES)
                elif op == "array":
                    name = data.draw(st.sampled_from(sorted(f.name for f in source.glob("*.npy"))))
                    values = np.load(source / name)
                    how = data.draw(st.sampled_from(["float64", "uint8", "shape", "truncate"]))
                    if how == "truncate":
                        blob = (source / name).read_bytes()
                        (path / name).write_bytes(blob[: data.draw(st.integers(0, len(blob) - 1))])
                    else:
                        write_array_file(path / name, {
                            "float64": values.astype(np.float64),
                            "uint8": np.full(values.shape, 7, dtype=np.uint8),
                            "shape": values.reshape(-1, 1),
                        }[how])
            (path / "manifest.json").write_text(json.dumps(doc["manifest"]))
            try:
                model, _ = load_checkpoint(path)
            except LatentcastError:
                return
            except FileNotFoundError as exc:  # a drawn file name; main exits 2 on it
                assert not Path(exc.filename).exists()
                return
            loaded = model.snapshot()
            assert loaded.keys() == arrays.keys()
            for name, value in arrays.items():
                assert loaded[name].dtype == value.dtype
                assert loaded[name].tobytes() == value.tobytes()

    @pytest.mark.filterwarnings("error")
    def test_zero_extent_latent_shape_refused(self, saved, tmp_path):
        path = Path(shutil.copytree(saved[0], tmp_path / "ckpt"))
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["model"]["latent_shape"] = [0, 2, 2]
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="latent h"):
            load_checkpoint(path)


class TestGradcheckSpot:
    """Representative finite-difference checks; the full layer x loss sweep
    runs in the acceptance suite."""

    def test_conv_chain_all_losses(self):
        from latentcast.nn import check_model_gradients

        rng = np.random.default_rng(0)
        for kind in LossKind:
            model = Sequential(
                [Conv2D("c", 1, 3), BatchNorm("n", 3), LeakyReLU("a", 0.05)]
            )
            init_all(model, seed=1, dtype=np.float64)
            x = rng.normal(size=(2, 6, 6, 1))
            y = model.forward(x, train=True)
            t = np.abs(rng.normal(size=y.shape))
            err = check_model_gradients(model, x, t, kind)
            assert err < 1e-4, f"{kind}: {err}"


# every predictor kind, the layered ones also two deep, and the autoencoder
_MODEL_KINDS = [("rnn", 1), ("rnn", 2), ("lstm", 1), ("gru", 1), ("convlstm", 1),
                ("convlstm", 2), ("cnn3d", None), ("crnn", None), ("autoencoder", None)]


def small_model(kind, layers, dtype=np.float32):
    """A small model of ``kind`` with an input batch and a target for it."""
    rng = np.random.default_rng(0)
    if kind == "autoencoder":
        model = build_autoencoder(AutoencoderConfig(dims=[4, 8], input_size=16), seed=3)
        x = rng.random((3, 16, 16, 1))
    else:
        config = SeqModelConfig(kind=kind, hidden_size=4, hidden_layers=layers)
        model = build_seq_model(config, (4, 4, 3), seed=3)
        x = rng.random((3, 5, 4, 4, 3))
    model.cast(dtype)
    y = model.forward(x.astype(dtype), train=False)
    return model, x.astype(dtype), rng.random(y.shape).astype(dtype)


def held_caches(model):
    """Names of the layers that hold a cache."""
    return [layer.name for layer in model.layers if layer._cache is not None]


# one layer of each kind with an input shape for it
_LAYERS = {
    "Conv2D": (lambda: Conv2D("conv", 1, 2), (2, 6, 6, 1)),
    "ConvTranspose2D": (lambda: ConvTranspose2D("deconv", 2, 1), (2, 3, 3, 2)),
    "Conv3D": (lambda: Conv3D("vol", 1, 2), (2, 3, 4, 4, 1)),
    "Dense": (lambda: Dense("dense", 3, 2), (2, 3)),
    "BatchNorm": (lambda: BatchNorm("bn", 2), (4, 2)),
    "LeakyReLU": (lambda: LeakyReLU("act"), (2, 3)),
    "Sigmoid": (lambda: Sigmoid("sig"), (2, 3)),
    "Recurrence": (lambda: Recurrence("rec", [ElmanCell("cell", 3, 2)]), (2, 4, 3)),
}


class TestCacheLifetime:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind, layers", _MODEL_KINDS)
    def test_parameter_only_backward_gives_the_same_gradients(self, kind, layers, dtype):
        grads = []
        for need_dx in (True, False):
            model, x, target = small_model(kind, layers, dtype)
            model.zero_grads()
            _, d = loss_with_grad(LossKind.MSE, model.forward(x, train=True), target)
            dx = model.backward(d, need_dx=need_dx)
            assert dx.shape == x.shape if need_dx else dx is None
            grads.append({k: v.tobytes() for k, v in model.grads().items()})
        assert grads[0] == grads[1]

    @pytest.mark.parametrize("need_dx", [True, False])
    @pytest.mark.parametrize("kind, layers", _MODEL_KINDS)
    def test_caches_live_from_training_forward_to_backward(self, kind, layers, need_dx):
        model, x, target = small_model(kind, layers)
        assert held_caches(model) == []
        _, d = loss_with_grad(LossKind.MSE, model.forward(x, train=True), target)
        assert held_caches(model) != []
        model.backward(d, need_dx=need_dx)
        assert held_caches(model) == []
        model.forward(x, train=True)
        model.forward(x, train=False)
        assert held_caches(model) == []

    @pytest.mark.parametrize("case", ["after-eval-forward", "second-backward"])
    @pytest.mark.parametrize("kind", list(_LAYERS))
    def test_backward_without_training_forward_is_typed(self, kind, case):
        build, shape = _LAYERS[kind]
        layer = build()
        rng = np.random.default_rng(0)
        for m in layer.modules():
            m.init_params(rng, 0.01)
        y = layer.forward(rng.random(shape).astype(np.float32), train=case == "second-backward")
        if case == "second-backward":
            layer.backward(np.ones_like(y))
        with pytest.raises(LatentcastError, match=f"layer '{layer.name}'"):
            layer.backward(np.ones_like(y))
