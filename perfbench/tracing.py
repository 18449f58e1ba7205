"""Span recorder for the traced run.

Wrappers are installed at run time around public functions and methods of
the package, one per entry of ``TARGETS``; nothing in ``src/`` changes. A
wrapped call records a span: name, start, end, parent span and the current
request or step id. Spans stay in memory and are written out when the run
ends. A layer's self time is the sum over its spans of the span's duration
minus the durations of its direct children (calls are nested, one thread).

Work counters (``.gflop``, ``.mb``, ``eval_cache_mb`` ...) are computed from
array shapes and sizes at the same boundaries; they are not measured.
"""

from __future__ import annotations

import functools
import importlib
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

PKG = "latentcast"
MB = 1e6
GFLOP = 1e9

# eval-mode entry points: functional calls under them build caches no
# backward pass will read
EVAL_ENTRIES = {"training.evaluate_loss", "training.predict_batched", "autoencoder.encode",
                "autoencoder.decode", "seqmodels.predict_next"}

_FORWARD_KERNELS = {"conv2d_forward", "conv_transpose2d_forward", "conv3d_forward",
                    "dense_forward", "batchnorm_forward", "leaky_relu_forward"}


def _arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# -- computed work ----------------------------------------------------------
# Matmul flops of the im2col products (2 per multiply-add); bias adds and
# col2im scatter adds are left out.


def _conv2d_fwd(args, kwargs, out):
    w = _arg(args, kwargs, 1, "w")
    return 2.0 * out[0].size * w.shape[0] * w.shape[1] * w.shape[2]


def _conv2d_bwd(args, kwargs, out):
    w = _arg(args, kwargs, 2, "w")
    return 4.0 * args[0].size * w.shape[0] * w.shape[1] * w.shape[2]


def _convt_fwd(args, kwargs, out):
    x, w = args[0], _arg(args, kwargs, 1, "w")
    return 2.0 * x.size * w.shape[0] * w.shape[1] * w.shape[3]


def _convt_bwd(args, kwargs, out):
    x, w = args[1][0], _arg(args, kwargs, 2, "w")
    return 4.0 * x.size * w.shape[0] * w.shape[1] * w.shape[3]


def _conv3d_fwd(args, kwargs, out):
    w = _arg(args, kwargs, 1, "w")
    return 2.0 * out[0].size * w.shape[0] * w.shape[1] * w.shape[2] * w.shape[3]


def _conv3d_bwd(args, kwargs, out):
    w = _arg(args, kwargs, 2, "w")
    return 4.0 * args[0].size * w.shape[0] * w.shape[1] * w.shape[2] * w.shape[3]


def _dense_fwd(args, kwargs, out):
    return 2.0 * args[0].size * _arg(args, kwargs, 1, "w").shape[1]


def _dense_bwd(args, kwargs, out):
    return 4.0 * args[1].size * _arg(args, kwargs, 2, "w").shape[1]


def _traffic_mb(args, kwargs, out):
    """Bytes of every distinct array read or returned, each counted once."""
    seen = {}
    for a in _arrays((args, tuple(kwargs.values()), out)):
        seen[id(a)] = a.nbytes
    return sum(seen.values()) / MB


def _adam_mb(args, kwargs, out):
    # per parameter: read p, g, m, v and write p, m, v
    grads = _arg(args, kwargs, 2, "grads")
    return 7 * sum(g.nbytes for g in grads.values()) / MB


# (layer, object path inside the package, counter name -> counter function)
TARGETS: list[tuple[str, str, dict]] = [
    ("nn.functional", "nn.functional.conv2d_forward", {"gflop": _conv2d_fwd}),
    ("nn.functional", "nn.functional.conv2d_backward", {"gflop": _conv2d_bwd}),
    ("nn.functional", "nn.functional.conv_transpose2d_forward", {"gflop": _convt_fwd}),
    ("nn.functional", "nn.functional.conv_transpose2d_backward", {"gflop": _convt_bwd}),
    ("nn.functional", "nn.functional.conv3d_forward", {"gflop": _conv3d_fwd}),
    ("nn.functional", "nn.functional.conv3d_backward", {"gflop": _conv3d_bwd}),
    ("nn.functional", "nn.functional.dense_forward", {"gflop": _dense_fwd}),
    ("nn.functional", "nn.functional.dense_backward", {"gflop": _dense_bwd}),
    ("nn.functional", "nn.functional.batchnorm_forward", {"mb": _traffic_mb}),
    ("nn.functional", "nn.functional.batchnorm_backward", {"mb": _traffic_mb}),
    ("nn.functional", "nn.functional.leaky_relu_forward", {"mb": _traffic_mb}),
    ("nn.functional", "nn.functional.leaky_relu_backward", {"mb": _traffic_mb}),
    ("nn.functional", "nn.functional.sigmoid", {"mb": _traffic_mb}),
    ("nn.functional", "nn.functional.sigmoid_backward", {"mb": _traffic_mb}),
    *[
        ("nn.cells", f"nn.cells.{cell}.{method}", {})
        for cell in ("ElmanCell", "LSTMCell", "GRUCell", "ConvLSTMCell", "ConvElmanCell")
        for method in ("step", "backstep")
    ],
    ("nn.optim", "nn.optim.Adam.step", {"mb": _adam_mb}),
    ("nn.losses", "nn.losses.loss_with_grad", {}),
    ("nn.network", "nn.network.Model.snapshot", {}),
    ("nn.network", "nn.network.save_checkpoint", {}),
    ("nn.network", "nn.network.load_checkpoint", {}),
    ("training", "training.fit", {}),
    ("training", "training.evaluate_loss", {}),
    ("training", "training.predict_batched", {}),
    ("autoencoder", "autoencoder.encode", {}),
    ("autoencoder", "autoencoder.decode", {}),
    ("autoencoder", "autoencoder.encode_dataset", {}),
    ("seqmodels", "seqmodels.predict_next", {}),
    ("seqmodels", "seqmodels.window_dataset", {}),
    *[
        ("seqmodels", f"seqmodels.{cls}.{method}", {})
        for cls in ("VectorRecurrentPredictor", "ConvLSTMPredictor", "CNN3DPredictor",
                    "CRNNPredictor")
        for method in ("forward", "backward")
    ],
    ("metrics", "metrics.ssim", {}),
    ("metrics", "metrics.score_frames", {}),
    ("preprocess", "preprocess.preprocess_sequence", {}),
    ("preprocess", "preprocess.resize_sequence", {}),
    ("preprocess", "preprocess.otsu_binarize", {}),
    ("preprocess", "preprocess.preprocess_dataset", {}),
    ("dataio", "dataio.parse_array_file", {}),
    ("dataio", "dataio.load_frame_directory", {}),
    ("dataio", "dataio.split_sequences", {}),
    ("experiment", "experiment.kfold_validate", {}),
    ("experiment", "experiment.grid_search_seq", {}),
]

STAGES = ("preprocess", "encode", "predict", "decode", "pixel_predict")


def per_layer_catalogue() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    kernels = [p for layer, p, _ in TARGETS if layer == "nn.functional"]
    out = [(f"{k}.{s}", u) for k in kernels for s, u in (("calls", "count"), ("self_s", "s"))]
    out += [(f"{k}.gflop", "GFLOP") for k in kernels[:8]]
    out += [(f"{k}.mb", "MB") for k in kernels[8:]]
    out.append(("nn.functional.eval_cache_mb", "MB"))
    out += [(f"{p}.{s}", u) for layer, p, _ in TARGETS if layer == "nn.cells"
            for s, u in (("calls", "count"), ("self_s", "s"))]
    out += [(f"{p}.self_s", "s") for layer, p, _ in TARGETS
            if layer == "seqmodels" and p.endswith(("forward", "backward"))]
    counts = [
        "nn.optim.Adam.step", "nn.losses.loss_with_grad", "nn.network.Model.snapshot",
        "training.evaluate_loss", "autoencoder.encode", "autoencoder.decode",
        "seqmodels.predict_next", "metrics.ssim", "metrics.score_frames",
        "preprocess.preprocess_sequence", "preprocess.otsu_binarize",
        "experiment.kfold_validate",
    ]
    out += [(f"{p}.calls", "count") for p in counts]
    self_only = [
        "nn.network.save_checkpoint", "nn.network.load_checkpoint", "training.fit",
        "autoencoder.encode_dataset", "seqmodels.window_dataset", "preprocess.resize_sequence",
        "preprocess.preprocess_dataset", "dataio.parse_array_file",
        "dataio.load_frame_directory", "dataio.split_sequences", "experiment.grid_search_seq",
    ]
    out += [(f"{p}.self_s", "s") for p in counts + self_only]
    out += [
        ("nn.optim.Adam.step.mb", "MB"),
        ("nn.network.checkpoint_mb", "MB"),
        ("training.fit.epochs", "count"),
        ("seqmodels.window_dataset.mb_ratio", "1"),
        ("dataio.parse_array_file.mb", "MB"),
        ("dataio.load_frame_directory.frames", "count"),
    ]
    out += [(f"stage.{s}.p50_ms", "ms") for s in STAGES]
    out.append(("trace.overhead_frac", "1"))
    return out


class Recorder:
    """In-memory span store plus computed counters."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ids: list[str] = []
        self.overheads: list[float] = []  # recorder time spent inside each span
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.current_id = ""  # request id, or optimizer step id while training
        self.steps = 0
        self.eval_depth = 0
        self.suspended = False  # set while the benchmark checks outputs
        self._originals: list[tuple[object, str, object]] = []

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target and rebind every package name that refers to it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == PKG or n.startswith(PKG + ".")]
        for _, path, counters in TARGETS:
            mod_path, _, attr = path.rpartition(".")
            owner = _resolve(mod_path)
            original = getattr(owner, attr)
            wrapper = self._wrap(path, original, counters)
            if isinstance(owner, type):
                self._originals.append((owner, attr, owner.__dict__.get(attr)))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._originals.append((mod, name, value))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._originals):
            if value is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)
        self._originals.clear()

    def _wrap(self, name: str, fn, counters: dict):
        kernel = name.rsplit(".", 1)[1] if name.startswith("nn.functional.") else None
        eval_entry = name in EVAL_ENTRIES
        eval_cache = kernel in _FORWARD_KERNELS
        post = _POST.get(name)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.suspended:
                return fn(*args, **kwargs)
            t_in = perf_counter()
            idx = len(rec.names)
            parent = rec.stack[-1] if rec.stack else -1
            rec.names.append(name)
            rec.parents.append(parent)
            rec.ids.append(rec.current_id)
            rec.starts.append(0.0)
            rec.ends.append(0.0)
            rec.overheads.append(0.0)
            rec.stack.append(idx)
            rec.eval_depth += eval_entry
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                rec.eval_depth -= eval_entry
                rec.stack.pop()
                rec.starts[idx] = t0
                rec.ends[idx] = t1
            for key, count in counters.items():
                rec.add(f"{name}.{key}", count(args, kwargs, out))
            if eval_cache and rec.eval_depth:
                rec.add("nn.functional.eval_cache_mb", _cache_mb(args, out))
            if post is not None:
                post(rec, args, kwargs, out)
            if parent >= 0:  # the parent's self time excludes the recorder's own work
                rec.overheads[parent] += (t0 - t_in) + (perf_counter() - t1)
            return out

        return wrapper

    # -- results ---------------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name, from the parent links; the
        recorder's own bookkeeping inside a span is not counted."""
        n = len(self.names)
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        child = np.zeros(n)
        parents = np.asarray(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        own = dur - child - np.asarray(self.overheads)
        out: dict[str, tuple[int, float]] = {}
        for name, s in zip(self.names, own):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + float(s))
        return out

    def write_spans(self, path: Path) -> None:
        """One tab-separated line per span, times relative to the first start."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\tid\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{name}\t{self.starts[i] - t0:.9f}\t{self.ends[i] - t0:.9f}\t"
                         f"{self.parents[i]}\t{self.ids[i]}\n")


def _resolve(path: str):
    """Module or class for a dotted path below the package."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join([PKG, *parts[:cut]]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise LookupError(path)


def _cache_mb(args, out) -> float:
    """Bytes of cache arrays a forward call keeps that are not its inputs."""
    inputs = list(_arrays(args))
    cache = out[1] if isinstance(out, tuple) else ()
    total = 0
    for a in _arrays(cache):
        if not any(np.may_share_memory(a, x) for x in inputs):
            total += a.nbytes
    return total / MB


def _after_adam(rec, args, kwargs, out):
    rec.steps += 1
    rec.current_id = f"step{rec.steps}"


def _after_window(rec, args, kwargs, out):
    rec.add("seqmodels.window_dataset.window_bytes", out[0].nbytes + out[1].nbytes)
    rec.add("seqmodels.window_dataset.source_bytes", args[0].nbytes)


def _after_fit(rec, args, kwargs, out):
    rec.add("training.fit.epochs", len(out.train_curve))


def _after_save(rec, args, kwargs, out):
    rec.add("nn.network.checkpoint_mb", sum(p.stat().st_size for p in Path(out).iterdir()) / MB)


def _after_parse(rec, args, kwargs, out):
    rec.add("dataio.parse_array_file.mb", len(_arg(args, kwargs, 0, "data")) / MB)


def _after_frames(rec, args, kwargs, out):
    rec.add("dataio.load_frame_directory.frames", len(out))


_POST = {
    "nn.optim.Adam.step": _after_adam,
    "seqmodels.window_dataset": _after_window,
    "training.fit": _after_fit,
    "nn.network.save_checkpoint": _after_save,
    "dataio.parse_array_file": _after_parse,
    "dataio.load_frame_directory": _after_frames,
}


def per_layer_metrics(rec: Recorder, stage_p50_ms: dict[str, float],
                      overhead_frac: float) -> dict[str, float]:
    """Every name of ``per_layer_catalogue`` with its value for this run."""
    spans = rec.self_times()
    values: dict[str, float] = {}
    for name, _unit in per_layer_catalogue():
        base, _, suffix = name.rpartition(".")
        if suffix == "calls":
            values[name] = float(spans.get(base, (0, 0.0))[0])
        elif suffix == "self_s":
            values[name] = spans.get(base, (0, 0.0))[1]
        elif name.startswith("stage."):
            values[name] = stage_p50_ms.get(name.split(".")[1], 0.0)
        elif name == "seqmodels.window_dataset.mb_ratio":
            src = rec.counters.get("seqmodels.window_dataset.source_bytes", 0.0)
            win = rec.counters.get("seqmodels.window_dataset.window_bytes", 0.0)
            values[name] = win / src if src else 0.0
        elif name == "trace.overhead_frac":
            values[name] = overhead_frac
        elif suffix == "gflop":
            values[name] = rec.counters.get(name, 0.0) / GFLOP
        else:
            values[name] = rec.counters.get(name, 0.0)
    return values
