import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import latfield
from latfield import cli
from latfield.cli import main
from latfield.evolution import make_plan
from latfield.models import (
    DeuteronSpec,
    ResourceParams,
    SchwingerParams,
    ThirringParams,
    bare_vacuum,
    build_deuteron,
    build_resource_xy,
    build_schwinger,
    build_thirring,
    staggered_charge_op,
)
from latfield.pauli import Sector, StateVector, deserialize, expectation

from oracles import apply_string, dense_block


QUENCH_INI = """
[model]
n_sites = 6
mass = 0.5
coupling = 1.0

[algorithm]
t_max = 1.0
steps = 50
record_every = 5
"""

QUENCH8_INI = QUENCH_INI.replace("n_sites = 6", "n_sites = 8").replace(
    "steps = 50", "steps = 20"
)


def full_space_quench_rows(n, t_max, steps, record_every):
    """The 8-site quench of ``QUENCH8_INI`` on all ``2^n`` amplitudes, one
    Pauli string at a time: each group's exponential as the product of its
    commuting single-string rotations, observables summed string by string."""
    h = build_schwinger(SchwingerParams(n, 0.5, 1.0))
    plan = make_plan(h, t_max, steps)
    charge = staggered_charge_op(n)
    bits = np.arange(2**n)[:, None] >> np.arange(n) & 1
    dt = t_max / steps

    def mean(op, amps):
        value = op.constant_offset + sum(
            coeff * np.vdot(amps, apply_string(letters, amps)) for letters, coeff in op.items()
        )
        return value.real

    def row(step, amps):
        density = (np.abs(amps) ** 2 @ (bits != np.arange(n) % 2)).sum() / n
        return [step, step * dt, mean(h, amps), density, mean(charge, amps)]

    amps = bare_vacuum(n).amplitudes
    rows = [row(0, amps)]
    for step in range(1, steps + 1):
        for group in plan.grouping:
            for i in group:
                theta = dt * h.terms[i].coefficient
                rotated = apply_string(h.terms[i].letters, amps)
                amps = np.cos(theta) * amps - 1j * np.sin(theta) * rotated
        amps = np.exp(-1j * dt * h.constant_offset) * amps
        if step % record_every == 0 or step == steps:
            rows.append(row(step, amps))
    return np.array(rows)


DEUTERON_INI = """
[run]
seed = 11

[model]
level_count = 2

[algorithm]
budget = 300
"""


def run_cli(subcommand, ini_text, tmp_path, name, extra=()):
    cfg = tmp_path / f"{name}.ini"
    cfg.write_text(ini_text)
    out = tmp_path / name
    code = main([subcommand, "--config", str(cfg), "--out", str(out), *extra])
    return code, out


def read_rows(path):
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append(line.split(","))
    return header, rows


class TestQuench:
    def test_trajectory_and_metadata(self, tmp_path):
        code, out = run_cli("schwinger-quench", QUENCH_INI, tmp_path, "quench")
        assert code == 0
        text = (out / "trajectory.csv").read_text()
        assert text.startswith("# run.subcommand = schwinger-quench")
        header, rows = read_rows(out / "trajectory.csv")
        assert header == ["step", "time", "energy", "particle_density", "charge"]
        assert float(rows[0][3]) == 0.0  # exact zero density at t = 0
        assert float(rows[-1][3]) > 0.0
        manifest = json.loads((out / "manifest.json").read_text())
        assert "trajectory.csv" in manifest["outputs"]

    def test_sector_rows_match_full_space_oracle(self, tmp_path):
        code, out = run_cli("schwinger-quench", QUENCH8_INI, tmp_path, "quench8")
        assert code == 0
        _, rows = read_rows(out / "trajectory.csv")
        expected = full_space_quench_rows(8, 1.0, 20, 5)
        assert [int(row[0]) for row in rows] == [0, 5, 10, 15, 20]
        np.testing.assert_allclose(np.array(rows, dtype=float), expected, rtol=0, atol=1e-12)

    def test_sector_quench_builds_no_full_space_vector(self, tmp_path, monkeypatch):
        code, plain = run_cli("schwinger-quench", QUENCH8_INI, tmp_path, "plain")
        assert code == 0
        full_view = StateVector.amplitudes

        def guarded(state):
            if state.sector.dim < 2**state.n_qubits:
                raise AssertionError("the full-space vector of a sector state was built")
            return full_view.fget(state)

        monkeypatch.setattr(StateVector, "amplitudes", property(guarded))
        with pytest.raises(AssertionError, match="full-space vector"):
            bare_vacuum(8).on(Sector.of_charge(8, 0)).amplitudes
        code, out = run_cli("schwinger-quench", QUENCH8_INI, tmp_path, "guarded")
        assert code == 0
        csv = "trajectory.csv"
        assert (out / csv).read_bytes() == (plain / csv).read_bytes()

    def test_manifest_records_quench_counters(self, tmp_path):
        code, out = run_cli("schwinger-quench", QUENCH_INI, tmp_path, "counters")
        assert code == 0
        summary = json.loads((out / "manifest.json").read_text())["summary"]
        # C(6, 3) zero-charge states; odd bonds, even bonds and the diagonal.
        assert summary == {"sector_dim": 20, "sweeps": 50, "commuting_groups": 3}

    def test_manifest_checksums_match(self, tmp_path):
        import hashlib

        code, out = run_cli("schwinger-quench", QUENCH_INI, tmp_path, "sums")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        for entry in manifest["outputs"].values():
            digest = hashlib.sha256((out / entry["path"].split("/")[-1]).read_bytes()).hexdigest()
            assert digest == entry["sha256"]

    def test_manifest_records_peak_rss(self, tmp_path):
        import resource

        code, out = run_cli("schwinger-quench", QUENCH_INI, tmp_path, "rss")
        assert code == 0
        peak = json.loads((out / "manifest.json").read_text())["peak_rss_mb"]
        # The process's peak so far, in MiB: never above the peak read after.
        assert 0 < peak <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def test_dump_hamiltonian_flag(self, tmp_path):
        code, out = run_cli(
            "schwinger-quench", QUENCH_INI, tmp_path, "dump", extra=["--dump-hamiltonian"]
        )
        assert code == 0
        h = deserialize((out / "hamiltonian.txt").read_text())
        assert h.n_qubits == 6


class TestDeterminism:
    def test_identical_config_and_seed_reproduce_csv_bytes(self, tmp_path):
        _, out1 = run_cli("deuteron-vqe", DEUTERON_INI, tmp_path, "a")
        _, out2 = run_cli("deuteron-vqe", DEUTERON_INI, tmp_path, "b")
        assert (out1 / "vqe_run.csv").read_bytes() == (out2 / "vqe_run.csv").read_bytes()

    def test_seed_flag_overrides_run_section(self, tmp_path):
        _, out1 = run_cli("deuteron-vqe", DEUTERON_INI, tmp_path, "s1", extra=["--seed", "5"])
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["config"]["run.seed"] == "5"

    def test_vqe_scan_reproduces_bytes(self, tmp_path):
        ini = """
[model]
n_sites = 4
coupling = 2.0
spacing = 0.5

[algorithm]
mass_min = -0.5
mass_max = 0.5
mass_step = 0.5
method = vqe
layers = 2
budget = 120
"""
        _, out1 = run_cli("phase-scan", ini, tmp_path, "ps1", extra=["--seed", "3"])
        _, out2 = run_cli("phase-scan", ini, tmp_path, "ps2", extra=["--seed", "3"])
        assert (out1 / "scan.csv").read_bytes() == (out2 / "scan.csv").read_bytes()


class TestVqeRuns:
    def test_deuteron_csv_shape_and_energy(self, tmp_path):
        code, out = run_cli("deuteron-vqe", DEUTERON_INI, tmp_path, "deut")
        assert code == 0
        header, rows = read_rows(out / "vqe_run.csv")
        assert header == ["evaluation", "energy", "variance", "param_0"]
        energies = [float(r[1]) for r in rows]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["summary"]["energy"] == pytest.approx(min(energies))

    def test_manifest_records_stop_reason(self, tmp_path):
        ini = DEUTERON_INI.replace("budget = 300", "budget = 5")
        code, out = run_cli("deuteron-vqe", ini, tmp_path, "deut5")
        assert code == 0
        summary = json.loads((out / "manifest.json").read_text())["summary"]
        assert summary["stop_reason"] == "budget"
        assert summary["converged"] is False

    def test_schwinger_vqe_runs(self, tmp_path):
        ini = """
[model]
n_sites = 4
mass = 0.3
coupling = 1.0

[algorithm]
layers = 2
budget = 120
"""
        code, out = run_cli("schwinger-vqe", ini, tmp_path, "svqe")
        assert code == 0
        header, rows = read_rows(out / "vqe_run.csv")
        assert header[:3] == ["evaluation", "energy", "variance"]
        assert len(header) == 3 + 1 + 4  # one global angle + four local angles


    def test_cold_schwinger_vqe_leaves_the_bare_vacuum(self, tmp_path):
        # The all-zero start is a stationary point with an exactly zero
        # gradient; the seeded draws give the descent its way down.
        ini = """
[model]
n_sites = 6
mass = -0.5
coupling = 2.0
spacing = 0.5

[algorithm]
layers = 4
budget = 200
"""
        code, out = run_cli("schwinger-vqe", ini, tmp_path, "cold")
        assert code == 0
        summary = json.loads((out / "manifest.json").read_text())["summary"]
        h = build_schwinger(SchwingerParams(6, -0.5, 2.0, spacing=0.5))
        vacuum_energy = expectation(h, bare_vacuum(6))
        assert summary["energy"] < vacuum_energy - 0.1

    @pytest.mark.parametrize("subcommand", ["deuteron-vqe", "schwinger-vqe", "phase-scan"])
    def test_manifest_counts_energy_and_gradient_calls(self, tmp_path, subcommand):
        ini = {
            "deuteron-vqe": DEUTERON_INI,
            "schwinger-vqe": "[model]\nn_sites = 4\nmass = 0.3\ncoupling = 1.0\n\n"
            "[algorithm]\nlayers = 2\nbudget = 41\n",
            "phase-scan": "[model]\nn_sites = 4\ncoupling = 2.0\nspacing = 0.5\n\n"
            "[algorithm]\nmass_min = -0.5\nmass_max = 0.5\nmass_step = 0.5\n"
            "method = vqe\nlayers = 2\nbudget = 41\n",
        }[subcommand]
        budget = 300 if subcommand == "deuteron-vqe" else 41
        code, out = run_cli(subcommand, ini, tmp_path, "calls")
        assert code == 0
        summary = json.loads((out / "manifest.json").read_text())["summary"]
        calls = (summary["energy_calls"], summary["gradient_calls"], summary["evaluations"])
        # phase-scan lists the calls per reported mass.
        runs = zip(*calls) if subcommand == "phase-scan" else [calls]
        for energy_calls, gradient_calls, evaluations in runs:
            assert gradient_calls >= 1
            assert energy_calls + gradient_calls == evaluations <= budget


class TestPhaseScanCli:
    def test_vqe_manifest_counts_stop_reasons(self, tmp_path):
        ini = """
[model]
n_sites = 4
coupling = 2.0
spacing = 0.5

[algorithm]
mass_min = -0.5
mass_max = 0.5
mass_step = 0.5
method = vqe
layers = 2
budget = 40
"""
        code, out = run_cli("phase-scan", ini, tmp_path, "reasons")
        assert code == 0
        summary = json.loads((out / "manifest.json").read_text())["summary"]
        reasons = summary["stop_reasons"]
        assert set(reasons) <= {"tolerance", "budget", "stalled"}
        assert sum(reasons.values()) == 3
        assert reasons.get("tolerance", 0) == summary["converged_points"]

    def test_dense_method_columns(self, tmp_path):
        ini = """
[model]
n_sites = 6
coupling = 2.0
spacing = 0.5

[algorithm]
mass_min = -1.0
mass_max = 0.0
mass_step = 0.5
method = dense
"""
        code, out = run_cli("phase-scan", ini, tmp_path, "scan")
        assert code == 0
        header, rows = read_rows(out / "scan.csv")
        assert header == ["mass", "energy", "variance", "order_parameter"]
        assert len(rows) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert "steepest_change_mass" in manifest["summary"]


class TestStructureCli:
    def test_correlator_and_pdf(self, tmp_path):
        ini = """
[model]
n_sites = 6
mass = 0.5
coupling = 0.8

[algorithm]
t_max = 1.0
t_steps = 3
p_plus = 1.0
"""
        code, out = run_cli("thirring-correlator", ini, tmp_path, "corr")
        assert code == 0
        header, rows = read_rows(out / "correlator.csv")
        assert header == ["y", "t", "re", "im"]
        assert len(rows) == 5 * 3  # positions x times
        header, rows = read_rows(out / "pdf.csv")
        assert header == ["x_or_q", "re", "im"]

    @pytest.mark.parametrize("subcommand", ["thirring-correlator", "hadronic-tensor"])
    def test_summary_states_how_exact_the_state_is(self, tmp_path, subcommand):
        # The 6-site chain's lowest state of charge 1: two particles, 15 states.
        ini = CAPPED_16_SITES[subcommand].replace("n_sites = 16", "n_sites = 6")
        code, out = run_cli(subcommand, ini + "charge = 1\n", tmp_path, "summary")
        assert code == 0
        summary = json.loads((out / "manifest.json").read_text())["summary"]
        sector = Sector.of_charge(6, 1)
        block = dense_block(build_thirring(ThirringParams(6, 0.5, 0.8)), sector.indices)
        assert summary["sector_dim"] == sector.dim
        assert summary["state_energy"] == pytest.approx(np.linalg.eigvalsh(block)[0], abs=1e-12)
        assert 0.0 <= summary["state_residual"] < 1e-12

    def test_tensor_runs(self, tmp_path):
        ini = """
[model]
n_sites = 4
mass = 0.5
coupling = 0.8

[algorithm]
charge = 1
t_max = 2.0
t_steps = 4
omega_min = 0.0
omega_max = 2.0
omega_steps = 5
momentum = 0.5
"""
        code, out = run_cli("hadronic-tensor", ini, tmp_path, "tensor")
        assert code == 0
        header, rows = read_rows(out / "tensor.csv")
        assert header == ["x_or_q", "re", "im"]
        assert len(rows) == 5

    @pytest.mark.parametrize(
        "mu, nu, key", [(2, 1, "mu"), (-1, 0, "mu"), (0, 3, "nu")], ids=["2-1", "-1-0", "0-3"]
    )
    def test_tensor_refuses_a_current_index_past_one(self, tmp_path, capsys, mu, nu, key):
        # 0 is the charge density, 1 the bond current; nothing else is defined.
        ini = (
            "[model]\nn_sites = 6\nmass = 0.5\ncoupling = 0.8\n\n[algorithm]\n"
            "t_max = 1.0\nt_steps = 2\nomega_min = 0.0\nomega_max = 2.0\nomega_steps = 3\n"
            f"momentum = 0.5\nmu = {mu}\nnu = {nu}\n"
        )
        code, out = run_cli("hadronic-tensor", ini, tmp_path, "tensor")
        assert code == 2
        assert f"'{key}' in [algorithm] must be one of (0, 1)" in capsys.readouterr().err
        assert not (out / "tensor.csv").exists()


DUMPED_MODELS = {
    "schwinger": (
        "n_sites = 4\nmass = -0.5\ncoupling = 1.2\nspacing = 0.5\nboundary_field = 0.25\n",
        lambda: build_schwinger(SchwingerParams(4, -0.5, 1.2, 0.5, 0.25)),
        "mass",
    ),
    "thirring": (
        "n_sites = 5\nmass = 0.3\ncoupling = 0.7\n",
        lambda: build_thirring(ThirringParams(5, 0.3, 0.7)),
        "coupling",
    ),
    "deuteron": ("level_count = 3\n", lambda: build_deuteron(DeuteronSpec(3)), "level_count"),
    "resource": (
        "n_sites = 4\nalpha = 1.2\n",
        lambda: build_resource_xy(ResourceParams(4, 1.0, 1.2, 0.3, 1.0)),
        "n_sites",
    ),
}


class TestDumpHamiltonian:
    @pytest.mark.parametrize("kind", sorted(DUMPED_MODELS))
    def test_written_sum_is_the_builders(self, tmp_path, kind):
        keys, build, _ = DUMPED_MODELS[kind]
        ini = f"[model]\nmodel = {kind}\n{keys}"
        code, out = run_cli("dump-hamiltonian", ini, tmp_path, kind)
        assert code == 0
        written, expected = deserialize((out / "hamiltonian.txt").read_text()), build()
        assert written.n_qubits == expected.n_qubits
        assert written.items() == expected.items()
        assert written.constant_offset == expected.constant_offset
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["summary"] == {"terms": len(expected), "n_qubits": expected.n_qubits}

    @pytest.mark.parametrize("kind", sorted(DUMPED_MODELS))
    def test_missing_required_key_names_it(self, tmp_path, capsys, kind):
        keys, _, key = DUMPED_MODELS[kind]
        kept = "".join(line + "\n" for line in keys.splitlines() if not line.startswith(key))
        code, _ = run_cli("dump-hamiltonian", f"[model]\nmodel = {kind}\n{kept}", tmp_path, kind)
        assert code == 2
        assert f"missing required key '{key}' in section [model]" in capsys.readouterr().err


class TestThermalCli:
    def test_thermal_run_with_gibbs_dump(self, tmp_path):
        ini = """
[model]
n_sites = 4
mass = 0.6
coupling = 0.9

[algorithm]
beta = 0.8
quench_mass = 0.2
quench_coupling = 1.2
t_max = 1.0
t_steps = 3
threshold = 0.001
dump_gibbs = true
"""
        code, out = run_cli("thermal", ini, tmp_path, "thermal")
        assert code == 0
        header, rows = read_rows(out / "thermal.csv")
        assert header == ["t", "observable", "n_entries", "threshold"]
        assert (out / "gibbs.bin").exists()
        for row in rows:
            float(row[1])  # parseable values, no numpy repr leakage
            assert "np." not in row[1]


# Each needs a dense 2^16-state eigendecomposition, above DENSE_QUBIT_CAP.
CAPPED_16_SITES = {
    "thirring-correlator": """
[model]
n_sites = 16
mass = 0.5
coupling = 0.8

[algorithm]
t_max = 1.0
t_steps = 3
p_plus = 1.0
""",
    "hadronic-tensor": """
[model]
n_sites = 16
mass = 0.5
coupling = 0.8

[algorithm]
t_max = 1.0
t_steps = 2
omega_min = 0.0
omega_max = 2.0
omega_steps = 3
momentum = 0.0
""",
    "thermal": """
[model]
n_sites = 16
mass = 0.5
coupling = 0.8

[algorithm]
beta = 1.0
quench_mass = 0.3
quench_coupling = 0.8
t_max = 1.0
t_steps = 2
""",
    "phase-scan": """
[model]
n_sites = 16
coupling = 1.0

[algorithm]
mass_min = -0.5
mass_max = 0.5
mass_step = 0.5
method = dense
""",
}


class TestErrorPaths:
    def test_missing_key_names_it(self, tmp_path, capsys):
        ini = """
[model]
n_sites = 6
coupling = 1.0

[algorithm]
t_max = 1.0
steps = 10
"""
        code, _ = run_cli("schwinger-quench", ini, tmp_path, "missing")
        assert code == 2
        assert "mass" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        ini = QUENCH_INI + "\nwiggle = 3\n"
        code, _ = run_cli("schwinger-quench", ini, tmp_path, "unknown")
        assert code == 2
        assert "wiggle" in capsys.readouterr().err

    def test_threads_key_rejected(self, tmp_path, capsys):
        ini = "[run]\nthreads = 2\n" + QUENCH_INI
        code, _ = run_cli("schwinger-quench", ini, tmp_path, "key")
        assert code == 2
        assert "threads" in capsys.readouterr().err

    def test_threads_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("schwinger-quench", QUENCH_INI, tmp_path, "flag", extra=["--threads", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("subcommand", ["thirring-correlator", "hadronic-tensor"])
    def test_trotter_steps_key_rejected(self, tmp_path, capsys, subcommand):
        # The correlators propagate exactly at every size: no step count.
        ini = CAPPED_16_SITES[subcommand].replace("n_sites = 16", "n_sites = 6")
        code, _ = run_cli(subcommand, ini + "trotter_steps_per_unit = 128\n", tmp_path, "key")
        assert code == 2
        assert "trotter_steps_per_unit" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "subcommand, key, written",
        [
            ("hadronic-tensor", "t_steps", "tensor.csv"),
            ("hadronic-tensor", "omega_steps", "tensor.csv"),
            ("thermal", "t_steps", "thermal.csv"),
            ("thirring-correlator", "t_steps", "correlator.csv"),
        ],
    )
    def test_empty_grid_refused(self, tmp_path, capsys, subcommand, key, written):
        # No point on a grid is a configuration error, not an empty or
        # one-point (t = -t_max alone, delta_t = 1) result.
        ini = CAPPED_16_SITES[subcommand].replace("n_sites = 16", "n_sites = 6")
        ini = re.sub(rf"^{key} = \d+$", f"{key} = 0", ini, flags=re.M)
        code, out = run_cli(subcommand, ini, tmp_path, "empty")
        assert code == 2
        assert f"'{key}' in [algorithm] must be >= 1" in capsys.readouterr().err
        assert not (out / written).exists()

    @pytest.mark.parametrize("subcommand", sorted(CAPPED_16_SITES))
    def test_resource_cap_exit_code(self, tmp_path, capsys, subcommand):
        code, _ = run_cli(subcommand, CAPPED_16_SITES[subcommand], tmp_path, "cap")
        assert code == 3
        assert "16 qubits" in capsys.readouterr().err

    def test_empty_sector_is_refused_before_the_cap(self, tmp_path, capsys):
        # No 16-site basis state has charge 9: a configuration error, exit 2.
        ini = CAPPED_16_SITES["thirring-correlator"].replace("[algorithm]", "[algorithm]\ncharge = 9")
        code, _ = run_cli("thirring-correlator", ini, tmp_path, "empty")
        assert code == 2
        assert "total charge 9" in capsys.readouterr().err

    def test_out_of_memory_exit_code(self, tmp_path, capsys, monkeypatch):
        def exhausted(config):
            raise MemoryError

        monkeypatch.setitem(cli._RUNNERS, "schwinger-quench", exhausted)
        code, _ = run_cli("schwinger-quench", QUENCH_INI, tmp_path, "oom")
        assert code == 3
        assert "out of memory" in capsys.readouterr().err

    def test_uncreatable_output_directory(self, tmp_path, capsys):
        # A regular file where a parent directory should be.
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        cfg = tmp_path / "quench.ini"
        cfg.write_text(QUENCH_INI)
        out = blocker / "out"
        code = main(["schwinger-quench", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert str(out) in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["dense", "vqe"])
    @pytest.mark.parametrize(
        "low, high, step",
        [(0.5, 0.5, 0.5), (0.0, 0.2, 1.0), (0.0, 0.2, 0.3)],
        ids=["equal-bounds", "wide-step", "step-past-max"],
    )
    def test_single_mass_scan_refused_before_solving(
        self, tmp_path, capsys, monkeypatch, method, low, high, step
    ):
        def solved(*args, **kwargs):
            raise AssertionError("the scan was solved")

        monkeypatch.setattr(cli, "phase_scan", solved)
        monkeypatch.setattr(cli, "prepare_sector_state", solved)
        ini = (
            "[model]\nn_sites = 4\ncoupling = 2.0\nspacing = 0.5\n\n[algorithm]\n"
            f"mass_min = {low}\nmass_max = {high}\nmass_step = {step}\nmethod = {method}\n"
        )
        code, _ = run_cli("phase-scan", ini, tmp_path, "one")
        assert code == 2
        err = capsys.readouterr().err
        assert all(key in err for key in ("mass_min", "mass_max", "mass_step"))

    @pytest.mark.parametrize(
        "low, high, step, masses",
        [
            (0.0, 0.25, 0.1, [0.0, 0.1, 0.2]),
            # The range over the step reads 1.9999999999999996 here.
            (-0.7182, -0.5182, 0.1, [-0.7182, -0.6182, -0.5182]),
        ],
        ids=["stops-below-max", "step-divides-range"],
    )
    def test_scan_masses_stay_within_the_range(self, tmp_path, low, high, step, masses):
        ini = (
            "[model]\nn_sites = 4\ncoupling = 2.0\nspacing = 0.5\n\n[algorithm]\n"
            f"mass_min = {low}\nmass_max = {high}\nmass_step = {step}\nmethod = dense\n"
        )
        code, out = run_cli("phase-scan", ini, tmp_path, "scan")
        assert code == 0
        _, rows = read_rows(out / "scan.csv")
        assert [float(row[0]) for row in rows] == masses

    def test_unreadable_config(self, tmp_path):
        code = main(
            ["schwinger-quench", "--config", str(tmp_path / "absent.ini"), "--out", str(tmp_path)]
        )
        assert code == 2


class TestImport:
    def test_cli_import_leaves_scipy_optimize_unloaded(self):
        # Nor scipy itself, nor resource: the manifest imports them at run
        # time, for scipy's version and the peak RSS.
        src = os.path.dirname(os.path.dirname(latfield.__file__))
        heavy = ("scipy", "scipy.optimize", "scipy.linalg", "scipy.sparse", "resource")
        code = f"import sys, latfield.cli; print([m for m in {heavy!r} if m in sys.modules])"
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        assert out.stdout.strip() == "[]"
