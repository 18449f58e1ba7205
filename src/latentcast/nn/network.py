"""Model base class, sequential container, and checkpoint IO.

A checkpoint is a directory holding one model: one ``.npy`` file per
parameter and buffer, plus ``manifest.json`` tying names to files along
with the model spec. It holds no optimizer or RNG state, so training cannot
resume from it. A load gives back exactly the arrays that were saved, in
their saved shapes and dtypes, or raises ``CheckpointError``. A checkpoint
is written into a sibling temporary directory and renamed into place, so a
write that fails leaves any previous checkpoint at the path as it was.
"""

from __future__ import annotations

import json
import os
import re
import shutil
from pathlib import Path
from typing import Callable

import numpy as np

from ..dataio import _json_object, _read_npy, write_array_file
from ..errors import CheckpointError
from .layers import Layer, Module

MANIFEST_NAME = "manifest.json"


class Model:
    """Collection of named modules exposing one flat parameter store;
    subclasses set ``_modules``."""

    _modules: list[Module]

    def modules(self) -> list[Module]:
        return list(self._modules)

    def params(self) -> dict[str, np.ndarray]:
        return {f"{m.name}.{k}": v for m in self._modules for k, v in m.params.items()}

    def grads(self) -> dict[str, np.ndarray]:
        return {f"{m.name}.{k}": v for m in self._modules for k, v in m.grads.items()}

    def buffers(self) -> dict[str, np.ndarray]:
        return {f"{m.name}.{k}": v for m in self._modules for k, v in m.buffers().items()}

    def zero_grads(self) -> None:
        for m in self._modules:
            m.zero_grads()

    def param_count(self) -> int:
        return sum(v.size for v in self.params().values())

    def cast(self, dtype) -> "Model":
        """Re-type every parameter, gradient slot and buffer (float64 is the
        gradient-check shadow path)."""
        for m in self._modules:
            for k in list(m.params):
                m.params[k] = m.params[k].astype(dtype)
                m.grads[k] = m.grads[k].astype(dtype)
            for k, v in m.buffers().items():
                setattr(m, k, v.astype(dtype))
        return self

    def snapshot(self) -> dict[str, np.ndarray]:
        state = {k: v.copy() for k, v in self.params().items()}
        state.update({k: v.copy() for k, v in self.buffers().items()})
        return state

    def restore(self, snapshot: dict[str, np.ndarray]) -> None:
        """Copy back a ``snapshot`` of this model's parameters and buffers."""
        _copy_exact("state array", {**self.params(), **self.buffers()}, snapshot)

    # subclasses provide the actual computation
    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray, need_dx: bool = True) -> np.ndarray | None:
        """Add the parameter gradients; return dx, or None with ``need_dx=False``."""
        raise NotImplementedError

    def spec(self) -> dict:
        raise NotImplementedError


class Sequential(Model):
    def __init__(self, layers: list[Layer]):
        self.layers = list(layers)
        self._modules = [m for layer in self.layers for m in layer.modules()]

    def forward(self, x, train=True):
        for layer in self.layers:
            x = layer.forward(x, train)
        return x

    def backward(self, dy, need_dx=True):
        # without need_dx the pass stops at the first parameter layer, and
        # the layers before it drop their caches unread
        first = 0 if need_dx else min(i for i, layer in enumerate(self.layers)
                                      if any(m.params for m in layer.modules()))
        for layer in self.layers[:first]:
            layer._cache = None
        for i in reversed(range(first, len(self.layers))):
            dy = self.layers[i].backward(dy, need_dx or i > first)
        return dy


def _copy_exact(kind: str, own: dict[str, np.ndarray], flat: dict[str, np.ndarray]) -> None:
    """Copy ``flat`` into ``own`` only if both name the same arrays with the
    same shapes and dtypes; otherwise raise before anything is copied."""
    missing, unknown = sorted(own.keys() - flat.keys()), sorted(flat.keys() - own.keys())
    if missing or unknown:
        raise CheckpointError(f"{kind}s differ from the model: missing {missing}, unknown {unknown}")
    for name, value in flat.items():
        if value.shape != own[name].shape or value.dtype != own[name].dtype:
            raise CheckpointError(
                f"{kind} {name!r}: stored shape {value.shape} {value.dtype} "
                f"!= model shape {own[name].shape} {own[name].dtype}"
            )
    for name, value in flat.items():
        np.copyto(own[name], value)


# -- checkpointing -------------------------------------------------------------

_MODEL_BUILDERS: dict[str, Callable[[dict], Model]] = {}


def register_model_kind(kind: str, builder: Callable[[dict], Model]) -> None:
    _MODEL_BUILDERS[kind] = builder


def _array_filename(name: str) -> str:
    return name.replace("/", "_") + ".npy"


def save_checkpoint(path: str | Path, model: Model, extra: dict | None = None) -> Path:
    """Write a checkpoint directory at ``path``, replacing a checkpoint or
    an empty directory already there; anything else at ``path`` is refused."""
    path = Path(path)
    if path.exists() and not (
        path.is_dir() and ((path / MANIFEST_NAME).exists() or not any(path.iterdir()))
    ):
        raise CheckpointError(f"{path} exists and is not a checkpoint directory")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    tmp.mkdir()
    try:
        _write_checkpoint(tmp, model, extra)
        if path.exists():
            old = tmp.with_suffix(".old")
            path.rename(old)
            try:
                tmp.rename(path)
            except OSError:
                old.rename(path)
                raise
            shutil.rmtree(old)
        else:
            tmp.rename(path)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return path


def _write_checkpoint(path: Path, model: Model, extra: dict | None) -> None:
    params = model.params()
    buffers = model.buffers()
    for name, arr in {**params, **buffers}.items():
        write_array_file(path / _array_filename(name), arr)
    manifest = {
        "format": "latentcast-checkpoint",
        "version": 1,
        "model": model.spec(),
        "params": {name: _array_filename(name) for name in params},
        "buffers": {name: _array_filename(name) for name in buffers},
        "extra": extra or {},
    }
    (path / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2, default=str))


def load_checkpoint(path: str | Path) -> tuple[Model, dict]:
    """Rebuild (model, manifest) from a checkpoint directory. A manifest
    that does not build a registered model kind, or array files that are
    not exactly that model's arrays, raise ``CheckpointError``."""
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.exists():
        raise CheckpointError(f"no {MANIFEST_NAME} in {path}")
    manifest = _json_object(manifest_path.read_bytes(), str(manifest_path), ("model", "params"))
    spec = manifest["model"]
    kind = spec.get("model_kind") if isinstance(spec, dict) else None
    if not isinstance(kind, str) or kind not in _MODEL_BUILDERS:
        raise CheckpointError(f"{manifest_path}: no builder registered for model kind {kind!r}")
    try:
        model = _MODEL_BUILDERS[kind](spec)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{manifest_path}: cannot build a {kind} from it: {exc!r}") from exc
    _copy_exact("parameter", model.params(), _arrays(path, manifest, "params"))
    _copy_exact("buffer", model.buffers(), _arrays(path, manifest, "buffers"))
    return model, manifest


def _arrays(path: Path, manifest: dict, key: str) -> dict[str, np.ndarray]:
    """The arrays that the manifest's ``key`` block maps to plain ``.npy``
    file names inside the checkpoint directory, in their stored dtypes."""
    files = manifest.get(key, {})
    if not isinstance(files, dict) or not all(
        isinstance(f, str) and re.fullmatch(r"[\w.-]+\.npy", f) for f in files.values()
    ):
        raise CheckpointError(f"{path}: {key} must map names to .npy file names in the checkpoint")
    return {name: _read_npy((path / f).read_bytes())[1] for name, f in files.items()}
