"""The benchmark tracer patches latfield names by attribute path; every one
of them must still resolve, or a traced run breaks."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = load_tracing().TARGETS


@pytest.mark.parametrize("target", TARGETS, ids=[target[0] for target in TARGETS])
def test_tracer_target_resolves(target):
    name, module_name, path, kind, _ = target
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    assert inspect.isclass(owner) is (kind == "method"), name
    original = getattr(owner, attr)
    assert callable(original), name
    assert inspect.isgeneratorfunction(original) is (kind == "generator"), name
