"""The benchmark's four workloads: one latfield subcommand each, with the
config drawn from the benchmark seed.

The seed moves physical parameters inside narrow windows and never the
amount of work: site counts, sweep counts, time grids, evaluation budgets
and (for thermal6) the Gibbs operator whose entry count sets the loop
length are fixed, so timings from different seeds are comparable.  Each
workload also has a ``tiny`` form with the same structure at a few sites,
for the benchmark's own tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Experiment:
    """One generated experiment: the CLI subcommand, the INI text handed to
    it, and the resolved values the output checks need."""

    workload: str
    subcommand: str
    ini: str
    params: dict


def _ini(sections: dict) -> str:
    lines = []
    for name, values in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value}" for key, value in values.items())
        lines.append("")
    return "\n".join(lines)


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def quench16(seed: int, tiny: bool = False) -> Experiment:
    rng = random.Random(f"quench16:{seed}")
    model = {
        "n_sites": 6 if tiny else 16,
        "mass": _draw(rng, 0.4, 0.6),
        "coupling": _draw(rng, 0.8, 1.2),
    }
    algorithm = {"t_max": 1.0, "steps": 8 if tiny else 20, "record_every": 4 if tiny else 5}
    ini = _ini({"model": model, "algorithm": algorithm})
    return Experiment("quench16", "schwinger-quench", ini, {**model, **algorithm})


def scan12(seed: int, tiny: bool = False) -> Experiment:
    rng = random.Random(f"scan12:{seed}")
    mass_min = _draw(rng, -0.9, -0.7)
    model = {"n_sites": 6 if tiny else 12, "coupling": 2.0, "spacing": 0.5}
    algorithm = {
        "mass_min": mass_min,
        "mass_max": round(mass_min + 0.2, 4),
        "mass_step": 0.1,
        "method": "vqe",
        "layers": 2 if tiny else 4,
        "budget": 20 if tiny else 60,
    }
    ini = _ini({"model": model, "algorithm": algorithm})
    return Experiment("scan12", "phase-scan", ini, {**model, **algorithm})


def tensor10(seed: int, tiny: bool = False) -> Experiment:
    rng = random.Random(f"tensor10:{seed}")
    n = 6 if tiny else 10
    model = {
        "n_sites": n,
        "mass": _draw(rng, 0.4, 0.6),
        "coupling": _draw(rng, 0.6, 1.0),
    }
    algorithm = {
        # Two particles on the chain: charge n/2 - 2.
        "charge": n // 2 - 2,
        "t_max": 4.0,
        "t_steps": 6 if tiny else 40,
        "omega_min": 0.0,
        "omega_max": 4.0,
        "omega_steps": 21,
        "momentum": _draw(rng, 0.3, 0.9),
    }
    ini = _ini({"model": model, "algorithm": algorithm})
    return Experiment("tensor10", "hadronic-tensor", ini, {**model, **algorithm})


def thermal6(seed: int, tiny: bool = False) -> Experiment:
    rng = random.Random(f"thermal6:{seed}")
    # The initial Hamiltonian and beta stay fixed: with threshold 0 the
    # number of ket/bra entries, and so the work, follows from them.
    model = {"n_sites": 4 if tiny else 6, "mass": 0.5, "coupling": 0.8}
    algorithm = {
        "beta": 1.0,
        "threshold": 0.0,
        "quench_mass": _draw(rng, 0.1, 0.5),
        "quench_coupling": _draw(rng, 0.8, 1.2),
        "t_max": _draw(rng, 1.5, 2.5),
        "t_steps": 3,
    }
    ini = _ini({"model": model, "algorithm": algorithm})
    return Experiment("thermal6", "thermal", ini, {**model, **algorithm})


WORKLOADS = {
    "quench16": quench16,
    "scan12": scan12,
    "tensor10": tensor10,
    "thermal6": thermal6,
}
