"""Spans around latfield's public functions, installed from outside.

Each traced function is replaced, in every latfield module that holds a
reference to it (and on its class, for methods), by a wrapper that records
one span: name, start, end, the span open when it was called, and the minor
page faults taken in between.  Spans stay in memory until the run ends.
Self time is a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import importlib
import resource
import sys
import time
from collections import defaultdict


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index, minor faults]; parent -1 is none.
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._experiment_start = 0

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, _minflt()])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[4] = _minflt() - span[4]
        self._stack.pop()

    def add(self, key: str, amount: float) -> None:
        self.counts[key] += amount

    def begin_experiment(self) -> None:
        self.counts = defaultdict(float)
        self._experiment_start = len(self.spans)

    def experiment_totals(self) -> dict[str, float]:
        """Per-name inclusive time, self time, calls and minor faults over the
        spans of the current experiment, plus its counts."""
        spans = self.spans[self._experiment_start :]
        child_time = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent >= self._experiment_start:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for offset, (name, start, end, _, minflt) in enumerate(spans):
            duration = end - start
            totals[f"{name}.s"] += duration
            totals[f"{name}.self_s"] += duration - child_time[self._experiment_start + offset]
            totals[f"{name}.minflt"] += minflt
            totals[f"{name}.calls"] += 1
        totals.update(self.counts)
        return dict(totals)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,minflt\n")
            for index, (name, start, end, parent, minflt) in enumerate(self.spans):
                fh.write(f"{index},{name},{start:.9f},{end:.9f},{parent},{minflt}\n")


def _wrap(tracer: Tracer, name: str, fn, counts: dict):
    """``counts`` maps a suffix to ``f(result, args)``, added per call."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        for suffix, amount in counts.items():
            tracer.add(f"{name}.{suffix}", amount(result, args))
        return result

    return traced


def _wrap_generator(tracer: Tracer, name: str, fn, counts: dict):
    """A generator's work happens in its ``next`` calls: one span each (so
    ``calls`` counts resumptions).  ``counts`` maps a suffix to
    ``f(item, args)``, added per yielded item."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            index = tracer.open(name)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                tracer.close(index)
            for suffix, amount in counts.items():
                tracer.add(f"{name}.{suffix}", amount(item, args))
            yield item

    return traced


def _replace_everywhere(original, replacement) -> None:
    """Rebind every latfield module attribute that refers to ``original``,
    so callers that imported the name directly see the wrapper too."""
    for module_name, module in list(sys.modules.items()):
        if module_name == "latfield" or module_name.startswith("latfield."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


# (span name, module, attribute path, kind, counts taken from each call's
# result and arguments; for a generator, from each item it yields).  Methods
# are patched on their class, functions in every latfield module that
# imported them.
TARGETS = [
    ("cli.run", "latfield.cli", "run", "function", {}),
    ("cli.write_csv", "latfield.cli", "write_csv", "function", {}),
    ("models.build_schwinger", "latfield.models", "build_schwinger", "function", {}),
    ("models.particle_density", "latfield.models", "particle_density", "function", {}),
    ("pauli.PauliSum.apply_to", "latfield.pauli", "PauliSum.apply_to", "method", {}),
    ("pauli.expectation", "latfield.pauli", "expectation", "function", {}),
    ("pauli.to_dense", "latfield.pauli", "to_dense", "function", {}),
    ("evolution.make_plan", "latfield.evolution", "make_plan", "function", {}),
    (
        "evolution.trotter_states",
        "latfield.evolution",
        "trotter_states",
        "generator",
        {"sweeps": lambda item, args: 1},
    ),
    (
        "evolution.SpectralDecomposition",
        "latfield.evolution",
        "SpectralDecomposition.__init__",
        "method",
        {"dim": lambda result, args: args[0].eigenvalues.size},
    ),
    (
        "evolution.SpectralDecomposition.evolve",
        "latfield.evolution",
        "SpectralDecomposition.evolve",
        "method",
        {},
    ),
    ("structure.sector_indices", "latfield.structure", "sector_indices", "function", {}),
    ("structure.sector_matrix", "latfield.structure", "sector_matrix", "function", {}),
    (
        "structure.prepare_sector_state",
        "latfield.structure",
        "prepare_sector_state",
        "function",
        {},
    ),
    ("structure.hadronic_tensor", "latfield.structure", "hadronic_tensor", "function", {}),
    ("vqe.phase_scan", "latfield.vqe", "phase_scan", "function", {}),
    (
        "vqe.minimize",
        "latfield.vqe",
        "minimize",
        "function",
        {
            "evaluations": lambda result, args: result.evaluations,
            "converged": lambda result, args: int(result.converged),
        },
    ),
    ("thermal.bloch_propagate", "latfield.thermal", "bloch_propagate", "function", {}),
    (
        "thermal.decompose",
        "latfield.thermal",
        "decompose",
        "function",
        {"entries": lambda result, args: len(result.entries)},
    ),
    ("thermal.ensemble_observable", "latfield.thermal", "ensemble_observable", "function", {}),
]


class Patches:
    """The wrappers for every target, ready to be put in place and taken
    out again, so traced and untraced experiments can alternate in one
    process."""

    def __init__(self, tracer: Tracer) -> None:
        self._patches = []
        for name, module_name, path, kind, counts in TARGETS:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            if kind == "generator":
                wrapper = _wrap_generator(tracer, name, original, counts)
            else:
                wrapper = _wrap(tracer, name, original, counts)
            self._patches.append((owner if kind == "method" else None, attr, original, wrapper))

    def install(self) -> None:
        for owner, attr, original, wrapper in self._patches:
            if owner is not None:
                setattr(owner, attr, wrapper)
            else:
                _replace_everywhere(original, wrapper)

    def remove(self) -> None:
        for owner, attr, original, wrapper in self._patches:
            if owner is not None:
                setattr(owner, attr, original)
            else:
                _replace_everywhere(wrapper, original)
