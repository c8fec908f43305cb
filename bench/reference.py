"""Output checks for every benchmark experiment.

The references are computed here, apart from latfield: each Hamiltonian is
assembled from the bits of the basis index (diagonal terms from the
occupation of each qubit, hopping as the swap of two unequal neighbouring
bits) and restricted to a charge sector where the model allows it.  The
conventions are the ones latfield documents: qubit ``q`` is bit ``q`` of
the index, ``|0>`` has Z = +1, site ``j`` (1-based) sits on qubit ``j - 1``
with parity ``(-1)^j``, and the staggered charge is
``sum_j (Z_j + (-1)^j) / 2``.

Nothing is cached: every reference is recomputed from the run's own config
in well under the time of one experiment.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from workloads import Experiment

# First-order Trotter at dt = 0.05 on 16 sites: the energy error is linear
# in dt (it halves when dt halves) and grows with the electric terms; the
# largest seen over seeds 0-13 was 0.57 in energy and 2e-4 in density.
QUENCH_ENERGY_TOL = 1.0
QUENCH_DENSITY_TOL = 2e-3
# With 60 evaluations per mass point the scan stays well above the ground
# energy (largest gap seen over seeds 0-40: 4.5), so this bound only
# catches gross corruption; the variational lower bound is the tight check.
SCAN_ENERGY_TOL = 6.0
EXACT_TOL = 1e-8


def parities(n: int) -> np.ndarray:
    """(-1)^j at the 1-based site of every qubit."""
    return np.array([(-1.0) ** (q + 1) for q in range(n)])


def z_values(n: int, indices: np.ndarray) -> np.ndarray:
    """Z eigenvalue of every qubit in each basis state, shape (dim, n)."""
    bits = (indices[:, None] >> np.arange(n)[None, :]) & 1
    return 1.0 - 2.0 * bits


def charge_sector(n: int, charge: int) -> np.ndarray:
    """Sorted basis indices with the given total staggered charge."""
    indices = np.arange(2**n, dtype=np.int64)
    q = (z_values(n, indices) + parities(n)).sum(axis=1) / 2.0
    return indices[np.isclose(q, charge)]


def hopping(n: int, indices: np.ndarray, strengths) -> scipy.sparse.csr_matrix:
    """Nearest-neighbour hopping inside a charge-closed basis: the element
    between two states that differ by swapping unequal bits ``q, q+1`` is
    ``strengths[q]`` (XX + YY with weight w gives 2w)."""
    dim = indices.size
    rows, cols, vals = [], [], []
    for q in range(n - 1):
        differ = ((indices >> q) & 1) != ((indices >> (q + 1)) & 1)
        src = np.nonzero(differ)[0]
        rows.append(np.searchsorted(indices, indices[src] ^ (3 << q)))
        cols.append(src)
        vals.append(np.full(src.size, strengths[q], dtype=float))
    return scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    )


def schwinger(p: dict, mass: float, indices: np.ndarray) -> scipy.sparse.csr_matrix:
    """Gauge-eliminated Schwinger Hamiltonian: hopping 1/(4a) (XX + YY),
    mass m/2 (-1)^j Z_j, electric g^2 a / 2 sum_bonds L_j^2 with
    L_j = eps_0 + sum_{i<=j} (Z_i + (-1)^i) / 2."""
    n, a = p["n_sites"], p.get("spacing", 1.0)
    z = z_values(n, indices)
    par = parities(n)
    flux = p.get("boundary_field", 0.0) + np.cumsum((z + par) / 2.0, axis=1)[:, : n - 1]
    diag = mass / 2.0 * z @ par + p["coupling"] ** 2 * a / 2.0 * (flux**2).sum(axis=1)
    hop = hopping(n, indices, [1.0 / (2.0 * a)] * (n - 1))
    return (hop + scipy.sparse.diags(diag)).tocsr()


def thirring(n: int, mass: float, coupling: float, indices: np.ndarray) -> np.ndarray:
    """Thirring chain: hopping (-1)^(j+1)/4 (XX + YY) on bond j, mass
    m/2 (-1)^j Z_j, and g^2/4 Z_j Z_{j+1}; dense on the given basis."""
    z = z_values(n, indices)
    diag = mass / 2.0 * z @ parities(n) + coupling**2 / 4.0 * (z[:, :-1] * z[:, 1:]).sum(axis=1)
    hop = hopping(n, indices, [0.5 * (-1.0) ** q for q in range(n - 1)])
    return hop.toarray() + np.diag(diag)


# -- output files ------------------------------------------------------------


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and numeric rows of a latfield CSV ('#' lines are metadata)."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]], dtype=float)
    return header, rows.reshape(len(lines) - 1, len(header))


CSV_NAME = {
    "quench16": "trajectory.csv",
    "scan12": "scan.csv",
    "tensor10": "tensor.csv",
    "thermal6": "thermal.csv",
}


# -- references ----------------------------------------------------------------


def quench_reference(p: dict) -> dict:
    """Exact propagation of the bare vacuum in the zero-charge sector."""
    n = p["n_sites"]
    indices = charge_sector(n, 0)
    h = schwinger(p, p["mass"], indices)
    vacuum = sum(1 << q for q in range(1, n, 2))
    state = np.zeros(indices.size, dtype=complex)
    state[np.searchsorted(indices, vacuum)] = 1.0
    dt = p["t_max"] / p["steps"]
    steps = [s for s in range(p["steps"] + 1) if s % p["record_every"] == 0 or s == p["steps"]]
    vac_z = z_values(n, np.array([vacuum]))[0]
    z = z_values(n, indices)
    energy, density = {}, {}
    previous = 0
    for step in steps:
        if step:
            state = scipy.sparse.linalg.expm_multiply(-1j * dt * (step - previous) * h, state)
        previous = step
        energy[step] = float(np.vdot(state, h @ state).real)
        z_mean = np.abs(state) ** 2 @ z
        density[step] = float(np.sum(1.0 - vac_z * z_mean) / (2.0 * n))
    return {"steps": steps, "dt": dt, "energy": energy, "density": density}


def check_quench(p: dict, ref: dict, out: Path, manifest: dict) -> list[str]:
    header, rows = read_csv(out / CSV_NAME["quench16"])
    if header != ["step", "time", "energy", "particle_density", "charge"]:
        return [f"unexpected columns {header}"]
    if [int(s) for s in rows[:, 0]] != ref["steps"]:
        return [f"recorded steps {rows[:, 0].tolist()} != {ref['steps']}"]
    problems = []
    for step, t, energy, density, charge in rows:
        step = int(step)
        if abs(t - step * ref["dt"]) > 1e-12:
            problems.append(f"step {step}: time {t}")
        if abs(charge) > 1e-10:
            problems.append(f"step {step}: charge {charge} is not 0")
        if not 0.0 <= density <= 1.0 or (step == 0 and density != 0.0):
            problems.append(f"step {step}: density {density} out of range")
        # The bare vacuum is a basis state, so the energy at t = 0 is exact.
        energy_tol = 1e-9 if step == 0 else QUENCH_ENERGY_TOL
        if abs(energy - ref["energy"][step]) > energy_tol:
            problems.append(f"step {step}: energy {energy} vs exact {ref['energy'][step]}")
        if abs(density - ref["density"][step]) > QUENCH_DENSITY_TOL:
            problems.append(f"step {step}: density {density} vs exact {ref['density'][step]}")
    return problems


def scan_masses(p: dict) -> list[float]:
    count = int(round((p["mass_max"] - p["mass_min"]) / p["mass_step"])) + 1
    return [p["mass_min"] + k * p["mass_step"] for k in range(count)]


def scan_reference(p: dict) -> dict:
    """Exact zero-charge ground energy at every scanned mass."""
    indices = charge_sector(p["n_sites"], 0)
    ground = {}
    for mass in scan_masses(p):
        ground[mass] = float(np.linalg.eigvalsh(schwinger(p, mass, indices).toarray())[0])
    return {"ground": ground}


def check_scan(p: dict, ref: dict, out: Path, manifest: dict) -> list[str]:
    header, rows = read_csv(out / CSV_NAME["scan12"])
    if header != ["mass", "energy", "variance", "order_parameter"]:
        return [f"unexpected columns {header}"]
    masses = list(ref["ground"])
    if len(rows) != len(masses) or np.abs(rows[:, 0] - masses).max() > 1e-9:
        return [f"scanned masses {rows[:, 0].tolist()} != {masses}"]
    problems = []
    for (mass, energy, variance, order), exact in zip(rows, ref["ground"].values()):
        if energy < exact - 1e-9:
            problems.append(f"m={mass}: energy {energy} below the ground energy {exact}")
        if energy > exact + SCAN_ENERGY_TOL:
            problems.append(f"m={mass}: energy {energy} too far above {exact}")
        if not -1.0 <= order <= 1.0:
            problems.append(f"m={mass}: order parameter {order} outside [-1, 1]")
        if variance < -1e-9:
            problems.append(f"m={mass}: negative variance {variance}")
    return problems


def tensor_reference(p: dict) -> dict:
    """W(omega) of the charge-density correlator, from the eigenbasis of the
    sector block.  Charge densities are diagonal, so the whole correlator
    stays in the state's charge sector."""
    n = p["n_sites"]
    indices = charge_sector(n, p["charge"])
    w, v = np.linalg.eigh(thirring(n, p["mass"], p["coupling"], indices))
    if w[1] - w[0] < 1e-6:
        raise ValueError(f"sector ground state is degenerate (gap {w[1] - w[0]:.2e})")
    psi, e0 = v[:, 0], w[0]
    z = z_values(n, indices)
    density = 0.5 * z + parities(n) / 2.0  # (dim, site): (Z_y + (-1)^y) / 2
    times = np.linspace(-p["t_max"], p["t_max"], 2 * p["t_steps"] + 1)
    a_ref = v.conj().T @ (density[:, 0] * psi)  # J_0|psi> in the eigenbasis
    corr = np.empty((n, times.size), dtype=complex)
    for y in range(n):
        b = v.conj().T @ (density[:, y] * psi)
        for col, t in enumerate(times):
            if t >= 0:  # <psi| J_y(t) J_0 |psi>
                corr[y, col] = np.exp(1j * e0 * t) * np.sum(b.conj() * np.exp(-1j * w * t) * a_ref)
            else:  # <psi| J_0 J_y(t) |psi>
                corr[y, col] = np.exp(-1j * e0 * t) * np.sum(a_ref.conj() * np.exp(1j * w * t) * b)
    dt = times[1] - times[0]
    omegas = np.linspace(p["omega_min"], p["omega_max"], p["omega_steps"])
    momentum_phase = np.exp(-1j * p["momentum"] * np.arange(n, dtype=float))[:, None]
    values = [
        float((dt * np.sum(np.exp(1j * om * times)[None, :] * momentum_phase * corr)).real)
        for om in omegas
    ]
    return {"omegas": omegas, "values": np.array(values)}


def check_tensor(p: dict, ref: dict, out: Path, manifest: dict) -> list[str]:
    header, rows = read_csv(out / CSV_NAME["tensor10"])
    if header != ["x_or_q", "re", "im"]:
        return [f"unexpected columns {header}"]
    if len(rows) != len(ref["omegas"]) or np.abs(rows[:, 0] - ref["omegas"]).max() > 1e-12:
        return [f"frequency grid {rows[:, 0].tolist()} differs"]
    problems = []
    for omega, re, im, exact in zip(rows[:, 0], rows[:, 1], rows[:, 2], ref["values"]):
        if abs(re - exact) > EXACT_TOL or im != 0.0:
            problems.append(f"omega={omega}: W = {re}{im:+}i vs exact {exact}")
    return problems


def thermal_reference(p: dict) -> dict:
    """Tr(O U rho U^dagger) / Z from dense 2^n matrices of both chains."""
    n = p["n_sites"]
    full = np.arange(2**n, dtype=np.int64)
    w0, v0 = np.linalg.eigh(thirring(n, p["mass"], p["coupling"], full))
    weights = np.exp(-p["beta"] * w0)
    rho = (v0 * weights) @ v0.conj().T
    w1, v1 = np.linalg.eigh(thirring(n, p["quench_mass"], p["quench_coupling"], full))
    observable = z_values(n, full) @ parities(n) / n  # staggered density, diagonal
    times = np.linspace(0.0, p["t_max"], p["t_steps"])
    values = []
    for t in times:
        u = (v1 * np.exp(-1j * w1 * t)) @ v1.conj().T
        # Tr(O U rho U^dagger) with O diagonal: sum_ij O_i (U rho)_ij conj(U_ij).
        value = np.einsum("i,ij,ij->", observable, u @ rho, u.conj()).real
        values.append(float(value / weights.sum()))
    return {"trace": float(weights.sum()), "times": times, "values": np.array(values)}


def check_thermal(p: dict, ref: dict, out: Path, manifest: dict) -> list[str]:
    header, rows = read_csv(out / CSV_NAME["thermal6"])
    if header != ["t", "observable", "n_entries", "threshold"]:
        return [f"unexpected columns {header}"]
    problems = []
    trace = manifest.get("summary", {}).get("trace")
    if trace is None or abs(trace - ref["trace"]) > 1e-10 * ref["trace"]:
        problems.append(f"manifest trace {trace} vs exact {ref['trace']}")
    if len(rows) != len(ref["times"]) or np.abs(rows[:, 0] - ref["times"]).max() > 1e-12:
        return problems + [f"time grid {rows[:, 0].tolist()} differs"]
    for t, value, exact in zip(rows[:, 0], rows[:, 1], ref["values"]):
        if abs(value - exact) > EXACT_TOL:
            problems.append(f"t={t}: observable {value} vs exact {exact}")
    return problems


REFERENCES = {
    "quench16": (quench_reference, check_quench),
    "scan12": (scan_reference, check_scan),
    "tensor10": (tensor_reference, check_tensor),
    "thermal6": (thermal_reference, check_thermal),
}


# -- whole run -------------------------------------------------------------------


def check_manifest(out: Path, manifest: dict) -> list[str]:
    """Every output the manifest names exists and matches its SHA-256."""
    outputs = manifest.get("outputs") or {}
    if not outputs:
        return ["manifest names no outputs"]
    problems = []
    for name, entry in outputs.items():
        path = out / name
        if not path.is_file() or Path(entry["path"]).resolve() != path.resolve():
            problems.append(f"manifest output {name} is not in {out}")
        elif hashlib.sha256(path.read_bytes()).hexdigest() != entry["sha256"]:
            problems.append(f"SHA-256 of {name} does not match the manifest")
    return problems


def check_run(exp: Experiment, results: list[dict]) -> list[list[str]]:
    """Problems found in each experiment of one run (an empty list is a pass).

    ``results`` holds one ``{"code": exit code, "out": directory}`` per
    experiment, warm-up first.  Besides the workload's own checks, every
    experiment must exit with 0, match its manifest checksums, and write
    CSV bytes identical to those of the first experiment in the run.
    """
    build, check = REFERENCES[exp.workload]
    ref = build(exp.params)
    csv_name = CSV_NAME[exp.workload]
    first_bytes = None
    report = []
    for result in results:
        out = Path(result["out"])
        if result["code"] != 0:
            report.append([f"exit code {result['code']}"])
            continue
        problems = []
        try:
            manifest = json.loads((out / "manifest.json").read_text())
            csv_bytes = (out / csv_name).read_bytes()
            problems += check_manifest(out, manifest)
            if csv_name not in manifest.get("outputs", {}):
                problems.append(f"manifest does not name {csv_name}")
            if first_bytes is None:
                first_bytes = csv_bytes
            elif csv_bytes != first_bytes:
                problems.append(f"{csv_name} differs from the first experiment of the run")
            problems += check(exp.params, ref, out, manifest)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(f"unreadable output: {exc!r}")
        report.append(problems)
    return report
