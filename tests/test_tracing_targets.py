"""The traced benchmark run (``perfbench/run.py --trace 1``) wraps package
objects by dotted path; every path must still resolve to a callable."""

import importlib.util
from pathlib import Path

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
