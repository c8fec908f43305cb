"""The benchmark tracer patches latfield names by attribute path; every one
of them must still resolve, or a traced run breaks, and every count it
takes from a call must read that call correctly."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from latfield.evolution import SpectralDecomposition, make_plan
from latfield.models import (
    ResourceParams,
    SchwingerParams,
    ThirringParams,
    bare_vacuum,
    build_resource_xy,
    build_schwinger,
    build_thirring,
)
from latfield.pauli import Sector
from latfield.thermal import bloch_propagate

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = load_tracing().TARGETS


def resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return owner, getattr(owner, attr)


@pytest.mark.parametrize("target", TARGETS, ids=[target[0] for target in TARGETS])
def test_tracer_target_resolves(target):
    name, module_name, path, kind, _ = target
    owner, original = resolve(module_name, path)
    assert inspect.isclass(owner) is (kind == "method"), name
    assert callable(original), name
    assert inspect.isgeneratorfunction(original) is (kind == "generator"), name


def decomposition_call():
    # The 12-site phase scan's XY generator on its 924-state sector; a
    # method's first argument is the instance.
    h = build_resource_xy(ResourceParams(12, 1.0, 1.5, 0.3, 1.0))
    args = (object.__new__(SpectralDecomposition), h, Sector.of_charge(12, 0))
    return args, lambda: {"dim": 924}


def sweep_call():
    plan = make_plan(build_schwinger(SchwingerParams(4, 0.5, 1.0)), 0.5, 2)
    return (plan, bare_vacuum(4)), lambda: {"sweeps": 1}


def minimize_call():
    charged = []

    def quadratic(x, gradient):
        charged.append(1 + gradient)
        return float(x @ x), (2.0 * x if gradient else None)

    return (quadratic, [0.5, -0.3], 40), lambda: {"evaluations": sum(charged), "converged": 1}


def decompose_call():
    gibbs = bloch_propagate(build_thirring(ThirringParams(4, 0.5, 0.8)), 1.0)
    return (gibbs, 0.0), lambda: {"entries": np.count_nonzero(gibbs.rho)}


# One real call per counted target: its arguments, and the counts expected
# from it, read once the call has run.
COUNTED_CALLS = {
    "evolution.trotter_states": sweep_call,
    "evolution.SpectralDecomposition": decomposition_call,
    "vqe.minimize": minimize_call,
    "thermal.decompose": decompose_call,
}


def test_every_counted_target_has_a_real_call():
    assert {target[0] for target in TARGETS if target[4]} == set(COUNTED_CALLS)


@pytest.mark.parametrize("name", sorted(COUNTED_CALLS))
def test_counts_read_a_real_call(name):
    _, module_name, path, kind, counts = next(t for t in TARGETS if t[0] == name)
    args, expected = COUNTED_CALLS[name]()
    result = resolve(module_name, path)[1](*args)
    if kind == "generator":
        result = next(result)
    assert {suffix: amount(result, args) for suffix, amount in counts.items()} == expected()
