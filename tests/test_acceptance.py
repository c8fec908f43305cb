"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
"""

import json
import time

import numpy as np

from latfield.cli import main
from latfield.evolution import exact_evolve, make_plan, trotter_error, trotter_evolve, trotter_states
from latfield.fermions import jw_annihilation
from latfield.models import (
    ResourceParams,
    SchwingerParams,
    ThirringParams,
    bare_vacuum,
    build_deuteron,
    build_schwinger,
    build_thirring,
    particle_density,
    reconstruct_efield,
    staggered_charge_op,
    staggered_density_op,
)
from latfield.pauli import StateVector, expectation, to_dense
from latfield.structure import (
    CorrelatorRequest,
    SectorSpec,
    charge_density,
    hadronic_tensor,
    hopping_bilinear,
    pdf_transform,
    prepare_sector_state,
    two_point,
)
from latfield.thermal import bloch_propagate, decompose, ensemble_observable
from latfield.vqe import (
    optimize,
    phase_scan,
    steepest_change,
    ucc_deuteron_ansatz,
)

from oracles import build_thirring_fermionic, dense_sum


def finish(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {number:2d}] {name}: {status} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def run_cli(tmp_path, subcommand, ini_text, name, seed=0):
    cfg = tmp_path / f"{name}.ini"
    cfg.write_text(ini_text)
    out = tmp_path / name
    code = main(
        [subcommand, "--config", str(cfg), "--out", str(out), "--seed", str(seed)]
    )
    assert code == 0
    return out


def test_criterion_1_deuteron_vqe(tmp_path):
    results = {}
    elapsed = {}
    for levels in (2, 3):
        ini = f"[model]\nlevel_count = {levels}\n\n[algorithm]\nbudget = 500\n"
        t0 = time.monotonic()
        out = run_cli(tmp_path, "deuteron-vqe", ini, f"deut{levels}")
        elapsed[levels] = time.monotonic() - t0
        manifest = json.loads((out / "manifest.json").read_text())
        exact = np.linalg.eigvalsh(to_dense(build_deuteron(levels)))[0]
        results[levels] = abs(manifest["summary"]["energy"] - exact)
    reference = 5.906709 - np.sqrt(6.343291**2 + 4.286608**2)
    ok = (
        results[2] < 1e-6
        and results[3] < 1e-4
        and abs(np.linalg.eigvalsh(to_dense(build_deuteron(2)))[0] - reference) < 1e-9
        and elapsed[2] < 5.0
        and elapsed[3] < 5.0
    )
    finish(
        1,
        "deuteron VQE",
        ok,
        f"|dE2|={results[2]:.2e} |dE3|={results[3]:.2e} "
        f"t2={elapsed[2]:.2f}s t3={elapsed[3]:.2f}s (ground ~ {reference:.3f})",
    )


def test_criterion_2_trotter_convergence():
    t0 = time.monotonic()
    h = build_schwinger(SchwingerParams(6, 0.5, 1.0))
    vac = bare_vacuum(6)
    step_counts = [8, 16, 32, 64, 128]
    errors = [trotter_error(make_plan(h, 1.0, k), vac) for k in step_counts]
    monotone = all(a >= b for a, b in zip(errors, errors[1:]))
    slope = float(np.polyfit(np.log(step_counts), np.log(errors), 1)[0])
    elapsed = time.monotonic() - t0
    ok = monotone and -2.2 <= slope <= -0.8 and elapsed < 30.0
    finish(
        2,
        "Trotter convergence",
        ok,
        f"slope={slope:.3f} monotone={monotone} t={elapsed:.1f}s",
    )


def test_criterion_3_pair_production():
    t0 = time.monotonic()
    n = 8
    h = build_schwinger(SchwingerParams(n, 0.5, 1.0))
    vac = bare_vacuum(n)
    zero_density = particle_density(vac, n)
    at_half = exact_evolve(h, 0.5, vac)
    density_half = particle_density(at_half, n)
    # Trotter vs dense-propagator pair-production trajectory at N_steps = 256
    # over t in [0, 1] (the density curve is the criterion's observable).
    plan = make_plan(h, 1.0, 256)
    record = 16
    worst = 0.0
    for step, state in enumerate(trotter_states(plan, vac), start=1):
        if step % record:
            continue
        t = step * plan.total_time / plan.steps
        dense_state = exact_evolve(h, t, vac)
        worst = max(worst, abs(particle_density(state, n) - particle_density(dense_state, n)))
    elapsed = time.monotonic() - t0
    ok = zero_density == 0.0 and density_half > 0.0 and worst <= 1e-3 and elapsed < 60.0
    finish(
        3,
        "pair production",
        ok,
        f"rho(0)={zero_density} rho(0.5)={density_half:.4f} max_dev={worst:.2e} t={elapsed:.1f}s",
    )


def test_criterion_4_phase_transition():
    t0 = time.monotonic()
    masses = [round(-1.2 + 0.1 * k, 10) for k in range(15)]
    # Dense oracle at N = 8.
    dense_ops = []
    order_op = staggered_density_op(8)
    for m in masses:
        h = build_schwinger(SchwingerParams(8, m, 2.0, 0.5))
        ground = prepare_sector_state(h, SectorSpec(total_charge=0))
        dense_ops.append(expectation(order_op, ground))
    dense_loc = steepest_change(masses, dense_ops)
    # VQE at N = 12 with 6 layers.
    records = phase_scan(
        masses,
        SchwingerParams(12, 0.0, 2.0, spacing=0.5),
        ResourceParams(12, 1.0, 1.5, 0.3, 1.0),
        n_layers=6,
        budget=2000,
        seed=0,
    )
    vqe_loc = steepest_change(masses, [r.order_parameter for r in records])
    elapsed = time.monotonic() - t0
    ok = -1.0 <= dense_loc <= -0.4 and -1.0 <= vqe_loc <= -0.4 and elapsed < 600.0
    finish(
        4,
        "phase transition",
        ok,
        f"dense@{dense_loc:+.2f} vqe@{vqe_loc:+.2f} (m_c ~ -0.7) t={elapsed:.0f}s",
    )


def test_criterion_5_self_verification():
    from latfield.vqe import Ansatz, energy_and_variance

    worst_exact = 0.0
    for h in (
        build_deuteron(2),
        build_deuteron(3),
        build_schwinger(SchwingerParams(6, 0.5, 1.0)),
        build_thirring(ThirringParams(6, 0.5, 0.8)),
    ):
        _, vectors = np.linalg.eigh(to_dense(h))
        for col in range(vectors.shape[1]):
            state = StateVector(vectors[:, col].astype(complex))
            # Feed the eigenstate through the evaluation op itself (an
            # empty circuit whose initial state is the eigenstate).
            _, variance = energy_and_variance(h, Ansatz((), state), [])
            worst_exact = max(worst_exact, variance)
    vqe_variances = []
    for levels in (2, 3):
        h = build_deuteron(levels)
        ansatz = ucc_deuteron_ansatz(levels)
        result = optimize(h, ansatz, np.zeros(ansatz.parameter_count), budget=500, seed=1)
        vqe_variances.append(result.variance)
    ok = worst_exact < 1e-9 and all(v < 1e-6 for v in vqe_variances)
    finish(
        5,
        "energy-variance self-verification",
        ok,
        f"max eigenstate variance={worst_exact:.1e}, VQE variances="
        + ",".join(f"{v:.1e}" for v in vqe_variances),
    )


def test_criterion_6_fermion_map_soundness():
    worst_car = 0.0
    for n in range(1, 7):
        ann = [dense_sum(jw_annihilation(j, n)) for j in range(n)]
        eye = np.eye(2**n)
        for i in range(n):
            for j in range(n):
                acc = ann[i] @ ann[j].conj().T + ann[j].conj().T @ ann[i]
                target = eye if i == j else 0 * eye
                worst_car = max(worst_car, np.abs(acc - target).max())
                acc2 = ann[i] @ ann[j] + ann[j] @ ann[i]
                worst_car = max(worst_car, np.abs(acc2).max())
    worst_build = 0.0
    for sites in (4, 6, 8):
        params = ThirringParams(sites, 0.37, 0.81)
        spin = to_dense(build_thirring(params))
        fermi = to_dense(build_thirring_fermionic(params))
        worst_build = max(worst_build, np.abs(spin - fermi).max())
    ok = worst_car < 1e-13 and worst_build < 1e-13
    finish(
        6,
        "fermion-map soundness",
        ok,
        f"CAR residual={worst_car:.1e}, builder mismatch={worst_build:.1e}",
    )


def test_criterion_7_gauss_law():
    flux_ok = True
    for eps0 in (0.0, 1.0, -0.3):
        params = SchwingerParams(8, 0.5, 1.0, boundary_field=eps0)
        flux = reconstruct_efield("01010101", params)
        flux_ok = flux_ok and np.allclose(flux, eps0, atol=0)
    n = 8
    h = build_schwinger(SchwingerParams(n, 0.5, 1.0))
    charge = staggered_charge_op(n)
    # Full space on purpose: a plan on the vacuum's charge sector conserves
    # charge by construction, and this check would then test nothing.
    plan = make_plan(h, 4.0, 200)
    worst = max(
        abs(expectation(charge, state)) for state in trotter_states(plan, bare_vacuum(n))
    )
    ok = flux_ok and worst < 1e-8
    finish(
        7,
        "Gauss law",
        ok,
        f"vacuum flux uniform={flux_ok}, max |charge drift|={worst:.1e}",
    )


def test_criterion_8_structure_oracles():
    n = 8
    h = build_thirring(ThirringParams(n, 0.5, 0.8))
    psi = prepare_sector_state(h, SectorSpec(total_charge=0))
    dense = to_dense(h)
    w, v = np.linalg.eigh(dense)
    energy = np.vdot(psi.amplitudes, dense @ psi.amplitudes).real
    times = tuple(np.linspace(0.0, 3.0, 7))
    positions = tuple(range(n - 1))
    req = CorrelatorRequest(
        op_a=hopping_bilinear(n, 0),
        op_b=hopping_bilinear(n, 0),
        times=times,
        positions=positions,
    )
    table = two_point(h, psi, req)
    worst_two_point = 0.0
    for row, y in enumerate(positions):
        from latfield.structure import translate

        a_amp = psi.amplitudes.conj() @ to_dense(translate(req.op_a, y)) @ v
        b_amp = v.conj().T @ to_dense(req.op_b) @ psi.amplitudes
        for col, t in enumerate(times):
            oracle = np.sum(np.exp(1j * (energy - w) * t) * a_amp * b_amp)
            worst_two_point = max(worst_two_point, abs(table[row, col] - oracle))
    # Hadronic tensor against the same eigenbasis oracle.
    tensor_times = list(np.linspace(-3.0, 3.0, 13))
    q_grid = [(0.9, 0.6), (1.7, 1.2)]
    tensor = hadronic_tensor(
        h, psi, lambda y: charge_density(n, y), q_grid, list(range(n)), tensor_times
    )
    corr = np.empty((n, len(tensor_times)), dtype=complex)
    j0 = to_dense(charge_density(n, 0))
    for row in range(n):
        jy = to_dense(charge_density(n, row))
        a_amp = psi.amplitudes.conj() @ jy @ v
        b_amp = v.conj().T @ j0 @ psi.amplitudes
        a_rev = psi.amplitudes.conj() @ j0 @ v
        b_rev = v.conj().T @ jy @ psi.amplitudes
        for col, t in enumerate(tensor_times):
            if t >= 0:
                corr[row, col] = np.sum(np.exp(1j * (energy - w) * t) * a_amp * b_amp)
            else:
                corr[row, col] = np.sum(np.exp(-1j * (energy - w) * t) * a_rev * b_rev)
    dt = tensor_times[1] - tensor_times[0]
    worst_tensor = 0.0
    for row, (omega, k) in enumerate(q_grid):
        phases = np.exp(
            1j
            * (
                omega * np.asarray(tensor_times)[None, :]
                - k * np.arange(n, dtype=float)[:, None]
            )
        )
        oracle = (dt * np.sum(phases * corr)).real
        worst_tensor = max(worst_tensor, abs(tensor.values[row].real - oracle))
    # Parseval identity for the momentum-fraction transform.
    rng = np.random.default_rng(8)
    ys = np.arange(12) * 0.5
    slice_values = rng.normal(size=12) + 1j * rng.normal(size=12)
    spectral = pdf_transform(slice_values, ys, p_plus=1.4)
    dx = spectral.grid[1] - spectral.grid[0]
    parseval = abs(
        np.sum(np.abs(spectral.values) ** 2) * dx - np.sum(np.abs(slice_values) ** 2) * 0.5
    )
    ok = worst_two_point < 1e-6 and worst_tensor < 1e-6 and parseval < 1e-10
    finish(
        8,
        "structure oracle equivalence",
        ok,
        f"two_point dev={worst_two_point:.1e}, tensor dev={worst_tensor:.1e}, "
        f"Parseval dev={parseval:.1e}",
    )


def test_criterion_9_thermal_pipeline():
    n = 6
    h0 = build_thirring(ThirringParams(n, 0.6, 0.9))
    h1 = build_thirring(ThirringParams(n, 0.2, 1.2))
    obs = staggered_density_op(n)
    beta = 0.8
    ts = bloch_propagate(h0, beta)
    eigenvalues = np.linalg.eigvalsh(dense_sum(h0))
    partition_dev = abs(ts.trace - np.sum(np.exp(-beta * eigenvalues)))
    ensemble = decompose(ts, threshold=0.0)
    w1, v1 = np.linalg.eigh(dense_sum(h1))
    obs_dense = dense_sum(obs)
    worst = 0.0
    for t in np.linspace(0.0, 5.0, 6):
        value = ensemble_observable(ensemble, h1, obs, float(t))
        u = (v1 * np.exp(1j * w1 * t)) @ v1.conj().T
        expected = np.trace(obs_dense @ u @ ts.rho @ u.conj().T).real / ts.trace
        worst = max(worst, abs(value - expected))
    ok = worst < 1e-8 and partition_dev < 1e-10
    finish(
        9,
        "thermal pipeline",
        ok,
        f"max quench dev={worst:.1e}, partition dev={partition_dev:.1e}",
    )


def test_criterion_10_determinism_and_performance(tmp_path):
    quench_ini = """
[model]
n_sites = 8
mass = 0.5
coupling = 1.0

[algorithm]
t_max = 2.0
steps = 100
record_every = 10
"""
    thermal_ini = """
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
"""
    identical = True
    for subcommand, ini, filename in (
        ("schwinger-quench", quench_ini, "trajectory.csv"),
        ("thermal", thermal_ini, "thermal.csv"),
    ):
        out1 = run_cli(tmp_path, subcommand, ini, f"{subcommand}-1", seed=9)
        out2 = run_cli(tmp_path, subcommand, ini, f"{subcommand}-2", seed=9)
        identical = identical and (
            (out1 / filename).read_bytes() == (out2 / filename).read_bytes()
        )
    h16 = build_schwinger(SchwingerParams(16, 0.5, 1.0))
    plan = make_plan(h16, 2.0, 100)
    t0 = time.monotonic()
    trotter_evolve(plan, bare_vacuum(16))
    elapsed = time.monotonic() - t0
    ok = identical and elapsed < 60.0
    finish(
        10,
        "determinism and performance",
        ok,
        f"byte-identical={identical}, 16-qubit 100-sweep time={elapsed:.1f}s",
    )
