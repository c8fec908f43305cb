"""Experiment runner: named subcommands over INI configs, deterministic CSV
outputs, and a JSON manifest per run.

Exit codes: 0 success, 2 configuration error or an output path that cannot
be created or written, 3 dense operator above ``DENSE_QUBIT_CAP`` qubits or
out of memory, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from collections import Counter
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import SUBCOMMANDS, ConfigError, RunConfig, load_run_config
from .evolution import make_plan, trotter_states
from .models import (
    NAMED_MODELS,
    DeuteronSpec,
    ResourceParams,
    SchwingerParams,
    ThirringParams,
    bare_vacuum,
    build_deuteron,
    build_schwinger,
    build_thirring,
    particle_density,
    staggered_charge_op,
    staggered_density_op,
    total_z,
)
from .pauli import InvariantViolation, PauliSum, ResourceLimitError, Sector, expectation, serialize
from .structure import (
    CorrelatorRequest,
    SectorSpec,
    charge_density,
    hadronic_tensor,
    hopping_bilinear,
    pdf_transform,
    prepare_sector_state,
    thirring_bond_current,
    two_point,
)
from .thermal import bloch_propagate, decompose, dump_gibbs, ensemble_observable
from .vqe import (
    hva_schwinger_ansatz,
    optimize,
    phase_scan,
    steepest_change,
    ucc_deuteron_ansatz,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(
    path: Path, config: RunConfig, columns: list[str], rows, extra_meta: dict | None = None
) -> None:
    """CSV with '#'-prefixed metadata lines carrying the resolved config
    (and any extra keys such as the quadrature rule), so the file alone
    suffices to re-run the experiment."""
    lines = [f"# {key} = {_format_value(value)}" for key, value in config.flat_items()]
    for key in sorted(extra_meta or {}):
        lines.append(f"# {key} = {_format_value(extra_meta[key])}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_format_value(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _at_least_one(algo: dict, key: str) -> int:
    """``algo[key]``, refused below 1: an empty grid gives an empty or wrong result."""
    if algo[key] < 1:
        raise ConfigError(f"'{key}' in [algorithm] must be >= 1")
    return algo[key]


def _state_summary(h: PauliSum, psi) -> dict:
    """A correlator state's energy, sector dimension and residual
    ``|h psi - E psi|``, read from one ``Sector.apply``."""
    amps = psi.sector_amplitudes
    h_psi = psi.sector.apply(h, amps)
    energy = float(np.vdot(amps, h_psi).real)
    residual = float(np.linalg.norm(h_psi - energy * amps))
    return {"state_energy": energy, "sector_dim": psi.sector.dim, "state_residual": residual}


def _params(cls, section: dict, **given):
    """``cls`` from the ``section`` keys that name its fields, and ``given``."""
    return cls(**{f.name: section[f.name] for f in fields(cls) if f.name not in given}, **given)


# -- subcommand bodies -------------------------------------------------------


def _run_schwinger_quench(config: RunConfig) -> dict:
    algo = config.algorithm()
    params = SchwingerParams(**config.model())
    h = build_schwinger(params)
    n = params.n_sites
    charge_op = staggered_charge_op(n)
    # Swept and measured in the bare vacuum's zero-charge sector (a sweep
    # raises if h leaks out of it); the charge column certifies it.
    sector = Sector.of_charge(n, 0)
    state = bare_vacuum(n).on(sector)
    plan = make_plan(h, algo["t_max"], algo["steps"])
    dt = algo["t_max"] / algo["steps"]
    record_every = _at_least_one(algo, "record_every")

    def row(step: int, s) -> tuple:
        return (
            step,
            step * dt,
            expectation(h, s),
            particle_density(s, n),
            expectation(charge_op, s),
        )

    rows = [row(0, state)]
    for step, state in enumerate(trotter_states(plan, state), start=1):
        if step % record_every == 0 or step == algo["steps"]:
            rows.append(row(step, state))
    path = config.out / "trajectory.csv"
    write_csv(path, config, ["step", "time", "energy", "particle_density", "charge"], rows)
    summary = {"sector_dim": sector.dim, "sweeps": step, "commuting_groups": len(plan.grouping)}
    return {"files": [path], "hamiltonian": h, "summary": summary}


def _write_vqe_trace(path: Path, config: RunConfig, result) -> None:
    n_params = len(result.best_params)
    columns = ["evaluation", "energy", "variance"] + [f"param_{k}" for k in range(n_params)]
    rows = [
        (idx, energy, variance) + tuple(values)
        for idx, (energy, variance, values) in enumerate(result.trace)
    ]
    write_csv(path, config, columns, rows)


def _vqe_run(config: RunConfig, h: PauliSum, ansatz, starts: int = 1) -> dict:
    budget = config.algorithm()["budget"]
    initial = np.zeros(ansatz.parameter_count)
    result = optimize(h, ansatz, initial, budget=budget, seed=config.seed, starts=starts)
    path = config.out / "vqe_run.csv"
    _write_vqe_trace(path, config, result)
    return {
        "files": [path],
        "hamiltonian": h,
        "summary": {
            "energy": result.energy,
            "variance": result.variance,
            "evaluations": result.evaluations,
            "energy_calls": result.energy_calls,
            "gradient_calls": result.gradient_calls,
            "converged": result.converged,
            "stop_reason": result.stop_reason,
        },
    }


def _run_schwinger_vqe(config: RunConfig) -> dict:
    algo = config.algorithm()
    params = SchwingerParams(**config.model())
    resource = _params(ResourceParams, algo, n_sites=params.n_sites)
    ansatz = hva_schwinger_ansatz(resource, algo["layers"])
    return _vqe_run(config, build_schwinger(params), ansatz, algo["starts"])


def _run_deuteron_vqe(config: RunConfig) -> dict:
    spec = DeuteronSpec(**config.model())
    return _vqe_run(config, build_deuteron(spec), ucc_deuteron_ansatz(spec.level_count))


def _scan_masses(algo: dict) -> list[float]:
    if algo["mass_step"] <= 0:
        raise ConfigError("'mass_step' in [algorithm] must be positive")
    if algo["mass_max"] < algo["mass_min"]:
        raise ConfigError("'mass_max' must not be below 'mass_min'")
    # Floored, never past 'mass_max'; the slack keeps the top mass of a step that divides the range.
    count = int((algo["mass_max"] - algo["mass_min"]) / algo["mass_step"] + 1e-9) + 1
    if count < 2:
        raise ConfigError(
            "a phase scan needs at least two masses: 'mass_min', 'mass_max' and "
            "'mass_step' in [algorithm] give one"
        )
    return [round(algo["mass_min"] + k * algo["mass_step"], 12) for k in range(count)]


def _run_phase_scan(config: RunConfig) -> dict:
    model, algo = config.model(), config.algorithm()
    masses = _scan_masses(algo)
    template = SchwingerParams(**model, mass=0.0)
    summary: dict = {"method": algo["method"]}
    if algo["method"] == "dense":
        order_op = staggered_density_op(model["n_sites"])

        def solve(mass: float):
            h = build_schwinger(replace(template, mass=mass))
            ground = prepare_sector_state(h, SectorSpec(total_charge=0))
            return (mass, expectation(h, ground), 0.0, expectation(order_op, ground))

        rows = [solve(mass) for mass in masses]
    else:
        records = phase_scan(
            masses,
            template,
            _params(ResourceParams, algo, n_sites=model["n_sites"]),
            n_layers=algo["layers"],
            budget=algo["budget"],
            seed=config.seed,
        )
        rows = [(r.mass, r.energy, r.variance, r.order_parameter) for r in records]
        runs = [r.optimization for r in records]
        summary["converged_points"] = sum(1 for run in runs if run.converged)
        summary["stop_reasons"] = dict(Counter(run.stop_reason for run in runs))
        for key in ("energy_calls", "gradient_calls", "evaluations"):  # per reported mass
            summary[key] = [getattr(run, key) for run in runs]
        if records[0].dense_order_parameter is not None:
            summary["dense_order_parameters"] = [r.dense_order_parameter for r in records]
    summary["steepest_change_mass"] = steepest_change(
        [row[0] for row in rows], [row[3] for row in rows]
    )
    path = config.out / "scan.csv"
    write_csv(path, config, ["mass", "energy", "variance", "order_parameter"], rows)
    return {"files": [path], "summary": summary}


def _run_thirring_correlator(config: RunConfig) -> dict:
    algo = config.algorithm()
    t_steps = _at_least_one(algo, "t_steps")
    params = ThirringParams(**config.model())
    n = params.n_sites
    h = build_thirring(params)
    psi = prepare_sector_state(
        h, SectorSpec(total_charge=algo["charge"], energy_rank=algo["energy_rank"])
    )
    if algo["operator"] == "hopping":
        op = hopping_bilinear(n, 0)
        positions = tuple(range(n - 1))
    else:
        op = charge_density(n, 0)
        positions = tuple(range(n))
    times = tuple(np.linspace(0.0, algo["t_max"], t_steps))
    req = CorrelatorRequest(op_a=op, op_b=op, times=times, positions=positions)
    table = two_point(h, psi, req)
    corr_path = config.out / "correlator.csv"
    rows = [
        (y, t, table[i, j].real, table[i, j].imag)
        for i, y in enumerate(positions)
        for j, t in enumerate(times)
    ]
    write_csv(corr_path, config, ["y", "t", "re", "im"], rows)
    slice_index = int(np.argmin(np.abs(np.asarray(times) - algo["pdf_time"])))
    spectral = pdf_transform(
        table[:, slice_index], np.asarray(positions, dtype=float), algo["p_plus"]
    )
    pdf_path = config.out / "pdf.csv"
    pdf_rows = [
        (x, v.real, v.imag) for x, v in zip(spectral.grid, spectral.values)
    ]
    write_csv(
        pdf_path,
        config,
        ["x_or_q", "re", "im"],
        pdf_rows,
        extra_meta={f"quadrature.{k}": v for k, v in spectral.metadata.items()},
    )
    return {
        "files": [corr_path, pdf_path],
        "hamiltonian": h,
        "summary": {
            **_state_summary(h, psi),
            "pdf_time": float(times[slice_index]),
            "quadrature": spectral.metadata,
        },
    }


def _run_hadronic_tensor(config: RunConfig) -> dict:
    algo = config.algorithm()
    half = _at_least_one(algo, "t_steps")
    omega_steps = _at_least_one(algo, "omega_steps")
    params = ThirringParams(**config.model())
    n = params.n_sites
    h = build_thirring(params)
    psi = prepare_sector_state(
        h, SectorSpec(total_charge=algo["charge"], energy_rank=algo["energy_rank"])
    )

    def current(index: int):
        def build(site: int) -> PauliSum:
            if index == 0:
                return charge_density(n, site)
            return thirring_bond_current(n, site)

        return build

    positions = list(range(n - 1 if (algo["mu"] == 1 or algo["nu"] == 1) else n))
    times = list(np.linspace(-algo["t_max"], algo["t_max"], 2 * half + 1))
    omegas = np.linspace(algo["omega_min"], algo["omega_max"], omega_steps)
    q_grid = [(float(w), algo["momentum"]) for w in omegas]
    table = hadronic_tensor(
        h,
        psi,
        current(algo["mu"]),
        q_grid,
        positions,
        times,
        current_b=current(algo["nu"]),
    )
    path = config.out / "tensor.csv"
    rows = [
        (omega, value.real, value.imag)
        for (omega, _), value in zip(q_grid, table.values)
    ]
    write_csv(
        path,
        config,
        ["x_or_q", "re", "im"],
        rows,
        extra_meta={
            "quadrature.delta_t": table.metadata["delta_t"],
            "quadrature.delta_y": table.metadata["delta_y"],
        },
    )
    return {
        "files": [path],
        "hamiltonian": h,
        "summary": {
            **_state_summary(h, psi),
            "momentum": algo["momentum"],
        },
    }


def _run_thermal(config: RunConfig) -> dict:
    algo = config.algorithm()
    t_steps = _at_least_one(algo, "t_steps")
    params = ThirringParams(**config.model())
    n = params.n_sites
    h0 = build_thirring(params)
    h1 = build_thirring(
        ThirringParams(n, algo["quench_mass"], algo["quench_coupling"])
    )
    observable = {
        "staggered_density": staggered_density_op(n),
        "total_z": total_z(n),
        "energy": h1,
    }[algo["observable"]]
    ts = bloch_propagate(h0, algo["beta"])
    ensemble = decompose(ts, algo["threshold"])
    times = np.linspace(0.0, algo["t_max"], t_steps)
    rows = [
        (
            float(t),
            ensemble_observable(ensemble, h1, observable, float(t)),
            len(ensemble.entries),
            algo["threshold"],
        )
        for t in times
    ]
    path = config.out / "thermal.csv"
    write_csv(path, config, ["t", "observable", "n_entries", "threshold"], rows)
    files = [path]
    if algo["dump_gibbs"]:
        gibbs_path = config.out / "gibbs.bin"
        dump_gibbs(ts, gibbs_path)
        files.append(gibbs_path)
    return {
        "files": files,
        "hamiltonian": h0,
        "summary": {"trace": ts.trace, "n_entries": len(ensemble.entries)},
    }


def _run_dump_hamiltonian(config: RunConfig) -> dict:
    model = config.model()
    cls, build = NAMED_MODELS[model["model"]]
    for f in fields(cls):
        if f.default is MISSING and model[f.name] is None:
            raise ConfigError(f"missing required key '{f.name}' in section [model]")
    h = build(_params(cls, model))
    path = config.out / "hamiltonian.txt"
    path.write_text(serialize(h), encoding="utf-8")
    return {"files": [path], "summary": {"terms": len(h), "n_qubits": h.n_qubits}}


_RUNNERS = {
    "schwinger-quench": _run_schwinger_quench,
    "schwinger-vqe": _run_schwinger_vqe,
    "deuteron-vqe": _run_deuteron_vqe,
    "phase-scan": _run_phase_scan,
    "thirring-correlator": _run_thirring_correlator,
    "hadronic-tensor": _run_hadronic_tensor,
    "thermal": _run_thermal,
    "dump-hamiltonian": _run_dump_hamiltonian,
}


def run(config: RunConfig) -> dict:
    """Execute one experiment; returns the manifest dictionary."""
    # Here, not at module level: only scipy's version and the peak RSS are read.
    import resource

    import scipy

    started = time.time()
    config.out.mkdir(parents=True, exist_ok=True)
    outcome = _RUNNERS[config.subcommand](config)
    files = list(outcome.get("files", []))
    if config.dump_hamiltonian and config.subcommand != "dump-hamiltonian":
        h = outcome.get("hamiltonian")
        if h is not None:
            dump_path = config.out / "hamiltonian.txt"
            dump_path.write_text(serialize(h), encoding="utf-8")
            files.append(dump_path)
    manifest = {
        "subcommand": config.subcommand,
        "config": {key: _format_value(v) for key, v in config.flat_items()},
        "versions": {
            "latfield": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "wall_time_s": round(time.time() - started, 3),
        # The process's peak so far; Linux reports ru_maxrss in KiB.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "outputs": {
            p.name: {"path": str(p), "sha256": _sha256(p)} for p in files
        },
        "summary": outcome.get("summary", {}),
    }
    manifest_path = config.out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latfield",
        description="Desk-scale lattice field theory experiments on exact statevectors.",
    )
    parser.add_argument("--version", action="version", version=f"latfield {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="INI config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="optimizer seed")
        p.add_argument(
            "--dump-hamiltonian",
            action="store_true",
            help="also write the model Hamiltonian in PauliSum text form",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_run_config(
            args.config,
            args.subcommand,
            out=args.out,
            seed=args.seed,
            dump_hamiltonian=args.dump_hamiltonian,
        )
        run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError as exc:
        print(f"resource limit: out of memory {exc}".rstrip(), file=sys.stderr)
        return EXIT_RESOURCE
    except InvariantViolation as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # load_run_config reports its own read errors
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
