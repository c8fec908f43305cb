"""Variational ground-state search with energy-variance self-verification.

Ansatz circuits are sequences of layers acting on the amplitudes of the
``Sector`` the ansatz runs in (the full space by default).  A generator
layer evolves the state by ``exp(-i theta G)`` under one shared angle:
exactly over G's flip-mask parts when its terms commute pairwise, else
through G's eigendecomposition on the sector (desk-scale only).  A
local-Z layer carries one angle per qubit.  The Schwinger ansatz keeps the
bare vacuum's zero charge, so it runs in that sector, of dimension
C(N, N/2) instead of 2^N; the phase scan is that ansatz plus the objective.

The optimizer is deterministic for a fixed seed: seeded multi-start,
cyclic coordinate-wise golden-section refinement, then a Nelder-Mead
polish.  Every objective call evaluates energy and variance together
(the variance is free once H|psi> is in hand), and every optimization
reports why it stopped.

Objective evaluations at distinct parameter points are independent;
optimizer state updates and all reductions run in fixed order, so results
reproduce exactly for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .evolution import SpectralDecomposition, greedy_commuting_groups
from .models import (
    ResourceParams,
    SchwingerParams,
    bare_vacuum,
    build_resource_xy,
    build_schwinger,
    parity,
    staggered_density_op,
)
from .pauli import (
    CommutingExponential,
    DimensionError,
    InvariantViolation,
    PauliSum,
    Sector,
    StateVector,
    expectation,
)

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ParamPoint:
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        if not all(np.isfinite(vals)):
            raise ValueError("parameters must be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def coerce(cls, obj) -> "ParamPoint":
        if isinstance(obj, ParamPoint):
            return obj
        return cls(tuple(np.atleast_1d(np.asarray(obj, dtype=float))))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class GeneratorLayer:
    """exp(-i theta G) under one shared angle."""

    generator: PauliSum
    exact_product: bool = field(init=False)

    def __post_init__(self) -> None:
        if not self.generator.hermitian:
            raise InvariantViolation("layer generators must be Hermitian")
        groups = greedy_commuting_groups(self.generator.terms)
        object.__setattr__(self, "exact_product", len(groups) <= 1)

    @property
    def arity(self) -> int:
        return 1

    def apply(self, theta: float, amps: np.ndarray, sector: Sector) -> np.ndarray:
        if self.exact_product:
            return CommutingExponential(self.generator, theta, sector).apply(amps)
        decomp = SpectralDecomposition.for_hamiltonian(self.generator, sector=sector)
        return decomp.evolve_amplitudes(theta, amps)


@dataclass(frozen=True)
class LocalZLayer:
    """Independent Z rotations exp(-i theta_j (delta/2) Z_j), one angle per qubit."""

    n_qubits: int
    half_delta: float

    @property
    def arity(self) -> int:
        return self.n_qubits

    def apply(self, thetas: np.ndarray, amps: np.ndarray, sector: Sector) -> np.ndarray:
        return np.exp(-1j * self.half_delta * (sector.z_values @ thetas)) * amps


@dataclass(frozen=True)
class Ansatz:
    """Layered parameterized circuit plus its initial state, run in one
    sector (the full space unless given)."""

    layers: tuple
    initial_state: StateVector
    sector: Sector | None = None

    def __post_init__(self) -> None:
        if self.sector is None:
            object.__setattr__(self, "sector", Sector(self.initial_state.n_qubits))
        self.sector.restrict(self.initial_state)  # raises if the state leaves it

    @property
    def n_qubits(self) -> int:
        return self.initial_state.n_qubits

    @property
    def parameter_count(self) -> int:
        return sum(layer.arity for layer in self.layers)

    def amplitudes(self, point: "ParamPoint | Sequence[float]") -> np.ndarray:
        """The prepared state as amplitudes in the ansatz's sector."""
        values = ParamPoint.coerce(point).as_array()
        if values.size != self.parameter_count:
            raise DimensionError(
                f"ansatz takes {self.parameter_count} parameters, got {values.size}"
            )
        amps = self.sector.restrict(self.initial_state)
        cursor = 0
        for layer in self.layers:
            chunk = values[cursor : cursor + layer.arity]
            cursor += layer.arity
            amps = layer.apply(chunk if layer.arity > 1 else float(chunk[0]), amps, self.sector)
        return amps

    def prepare(self, point: "ParamPoint | Sequence[float]") -> StateVector:
        return self.sector.embed(self.amplitudes(point))


@dataclass(frozen=True)
class VqeResult:
    best_params: ParamPoint
    energy: float
    variance: float
    evaluations: int
    trace: tuple[tuple[float, float, tuple[float, ...]], ...]
    converged: bool
    stop_reason: str


# -- ansatz constructors -------------------------------------------------


def _single_excitation_generator(i: int, j: int, n: int) -> PauliSum:
    """Hermitian G with exp(-i theta G) = exp(theta (a_i^dag a_j - a_j^dag a_i))."""
    from .fermions import jw_annihilation, jw_creation

    raising = jw_creation(i, n).product(jw_annihilation(j, n))
    lowering = jw_creation(j, n).product(jw_annihilation(i, n))
    antiherm = raising + (-1.0) * lowering
    # a_i^dag a_j - a_j^dag a_i is anti-Hermitian; i * it is Hermitian, and
    # exp(theta * antiherm) = exp(-i theta G) with G = i * antiherm.
    return PauliSum(
        n,
        [(1j * c, s) for s, c in antiherm.items()],
        constant_offset=1j * antiherm.constant_offset,
    )


def ucc_deuteron_ansatz(level_count: int) -> Ansatz:
    """Single-excitation unitary coupled-cluster ansatz on |100...>.

    Two levels: one angle rotating modes 0<->1.  Three levels: the 0<->2
    rotation (with its Z string) acts first, then 0<->1.
    """
    if level_count not in (2, 3):
        raise ValueError("level_count must be 2 or 3")
    n = level_count
    initial = StateVector.from_bits("1" + "0" * (n - 1))
    g01 = GeneratorLayer(_single_excitation_generator(0, 1, n))
    if level_count == 2:
        return Ansatz((g01,), initial)
    g02 = GeneratorLayer(_single_excitation_generator(0, 2, n))
    return Ansatz((g02, g01), initial)


def hva_schwinger_ansatz(params: ResourceParams, n_layers: int) -> Ansatz:
    """Alternating layers: odd layers evolve the power-law XY resource
    Hamiltonian under one shared angle, even layers rotate every qubit
    independently about Z.  Starts from the bare vacuum, so the state stays
    in the zero-charge sector for any parameters, and the ansatz runs
    there."""
    if n_layers < 1:
        raise ValueError("n_layers must be >= 1")
    xy = GeneratorLayer(build_resource_xy(params))
    z = LocalZLayer(params.n_sites, params.delta / 2.0)
    layers = tuple(xy if k % 2 == 0 else z for k in range(n_layers))
    return Ansatz(layers, bare_vacuum(params.n_sites), Sector.of_charge(params.n_sites, 0))


# -- objective -----------------------------------------------------------


def energy_and_variance(
    h: PauliSum, ansatz: Ansatz, point: "ParamPoint | Sequence[float]"
) -> tuple[float, float]:
    """(<H>, <H^2> - <H>^2) on the prepared state, in the ansatz's sector
    (``H`` must map it into itself).

    <H^2> comes from applying H once and taking the norm of H|psi>; the
    operator is never squared symbolically.
    """
    if h.n_qubits != ansatz.n_qubits:
        raise DimensionError("Hamiltonian and ansatz qubit counts differ")
    amps = ansatz.amplitudes(point)
    hs = ansatz.sector.apply(h, amps)
    energy = complex(np.vdot(amps, hs))
    if abs(energy.imag) > 1e-9 * max(1.0, abs(energy.real)):
        raise InvariantViolation("energy has an imaginary residue")
    second_moment = np.vdot(hs, hs).real
    return energy.real, second_moment - energy.real**2


class _BudgetExhausted(Exception):
    pass


class _CountingObjective:
    """Budget-limited wrapper tracking the best point seen."""

    def __init__(self, func: Callable[[np.ndarray], float], budget: int):
        self.func = func
        self.budget = budget
        self.count = 0
        self.best_value = np.inf
        self.best_point: np.ndarray | None = None

    def __call__(self, values: np.ndarray) -> float:
        if self.count >= self.budget:
            raise _BudgetExhausted
        self.count += 1
        value = self.func(np.asarray(values, dtype=float))
        if value < self.best_value:
            self.best_value = value
            self.best_point = np.asarray(values, dtype=float).copy()
        return value


@dataclass(frozen=True)
class MinimizeOutcome:
    """``stop_reason`` is "tolerance" (a golden-section cycle or a polish met
    its tolerance; ``converged``), "budget" (too little budget remained) or
    "stalled" (a polish stopped improving)."""

    point: np.ndarray
    value: float
    evaluations: int
    converged: bool
    stop_reason: str


def _golden_line_search(
    objective: Callable[[np.ndarray], float],
    point: np.ndarray,
    coord: int,
    width: float,
    iterations: int = 18,
) -> tuple[np.ndarray, float]:
    """Golden-section minimum along one coordinate inside [x - w, x + w]."""

    def at(x: float) -> float:
        trial = point.copy()
        trial[coord] = x
        return objective(trial)

    lo, hi = point[coord] - width, point[coord] + width
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = at(x1), at(x2)
    for _ in range(iterations):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = at(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = at(x2)
    best_x, best_f = (x1, f1) if f1 <= f2 else (x2, f2)
    out = point.copy()
    out[coord] = best_x
    return out, best_f


def minimize(
    func: Callable[[np.ndarray], float],
    initial: Sequence[float],
    budget: int,
    seed: int = 0,
    starts: int = 1,
    cycle_tolerance: float = 1e-8,
    line_width: float = np.pi / 2,
    golden_cycles: int = 60,
) -> MinimizeOutcome:
    """Deterministic derivative-free minimization within an evaluation budget:
    seeded multi-start, cyclic golden-section coordinate refinement with a
    shrinking window, then a Nelder-Mead polish on the remaining budget.

    ``golden_cycles=0`` skips straight to the polish, the efficient setting
    for warm starts with many parameters.
    """
    # Imported here: it is this module's only use of scipy.optimize, whose
    # import takes about half a second.
    import scipy.optimize

    start_point = np.atleast_1d(np.asarray(initial, dtype=float))
    n_params = start_point.size
    if budget < n_params + 1:
        raise ValueError("budget must be at least parameter_count + 1")
    rng = np.random.default_rng(seed)
    objective = _CountingObjective(func, budget)
    stop_reason = None
    try:
        objective(start_point)
        for _ in range(max(0, starts - 1)):
            objective(start_point + rng.uniform(-line_width, line_width, n_params))
        current = objective.best_point.copy()
        current_value = objective.best_value
        width = line_width
        for _cycle in range(golden_cycles):
            cycle_start = current_value
            for coord in range(n_params):
                current, current_value = _golden_line_search(
                    objective, current, coord, width
                )
            width = max(width * 0.5, 1e-3)
            if abs(cycle_start - current_value) < cycle_tolerance:
                stop_reason = "tolerance"
                break
        # Nelder-Mead polish, restarted with a fresh simplex while budget
        # remains and progress continues.
        step = 0.05
        while objective.budget - objective.count > 2 * n_params:
            before = objective.best_value
            result = scipy.optimize.minimize(
                objective,
                objective.best_point,
                method="Nelder-Mead",
                options={
                    "maxfev": objective.budget - objective.count,
                    "xatol": 1e-10,
                    "fatol": 1e-12,
                    "initial_simplex": _initial_simplex(objective.best_point, step),
                },
            )
            if result.success:
                stop_reason = "tolerance"
            step *= 0.5
            if before - objective.best_value < cycle_tolerance:
                break
        if stop_reason is None:
            remaining = objective.budget - objective.count
            stop_reason = "budget" if remaining <= 2 * n_params else "stalled"
    except _BudgetExhausted:
        stop_reason = "budget"
    return MinimizeOutcome(
        point=objective.best_point,
        value=objective.best_value,
        evaluations=objective.count,
        converged=stop_reason == "tolerance",
        stop_reason=stop_reason,
    )


def optimize(
    h: PauliSum,
    ansatz: Ansatz,
    initial: "ParamPoint | Sequence[float]",
    budget: int,
    seed: int = 0,
    starts: int = 1,
    cycle_tolerance: float = 1e-8,
    golden_cycles: int = 60,
) -> VqeResult:
    """Derivative-free energy minimization within an evaluation budget.

    The best-seen point is never worse than the initial one; exhausting the
    budget is reported through ``stop_reason``, not raised.
    """
    trace: list[tuple[float, float, tuple[float, ...]]] = []
    best = {"energy": np.inf, "variance": np.inf}

    def func(values: np.ndarray) -> float:
        energy, variance = energy_and_variance(h, ansatz, values)
        trace.append((energy, variance, tuple(float(v) for v in values)))
        if energy < best["energy"]:
            best["energy"] = energy
            best["variance"] = variance
        return energy

    outcome = minimize(
        func,
        ParamPoint.coerce(initial).as_array(),
        budget,
        seed=seed,
        starts=starts,
        cycle_tolerance=cycle_tolerance,
        golden_cycles=golden_cycles,
    )
    return VqeResult(
        best_params=ParamPoint(tuple(outcome.point)),
        energy=outcome.value,
        variance=best["variance"],
        evaluations=outcome.evaluations,
        trace=tuple(trace),
        converged=outcome.converged,
        stop_reason=outcome.stop_reason,
    )


def _initial_simplex(point: np.ndarray, step: float) -> np.ndarray:
    n = point.size
    simplex = np.tile(point, (n + 1, 1))
    for k in range(n):
        simplex[k + 1, k] += step
    return simplex


# -- mass scan ------------------------------------------------------------


@dataclass(frozen=True)
class ScanRecord:
    mass: float
    energy: float
    variance: float
    order_parameter: float
    dense_order_parameter: float | None
    converged: bool
    stop_reason: str


def phase_scan(
    masses: Sequence[float],
    template: SchwingerParams,
    resource: ResourceParams,
    n_layers: int,
    budget: int,
    seed: int = 0,
    dense_cross: bool | None = None,
    burn_in_points: int = 6,
    burn_in_step: float = 0.25,
) -> list[ScanRecord]:
    """VQE scan over the mass, reporting the staggered-density order
    parameter (plus a dense cross-value when the oracle is cheap).

    The scan is traversed from the largest mass downward: large positive
    masses pin the ground state near the bare vacuum, where the all-zero
    parameter point is nearly optimal, and each point warm-starts the next
    so the optimizer tracks the ground-state branch across the transition.
    A few unreported burn-in masses above the top of the scan anneal the
    warm start before the first reported point.
    """
    masses = [float(m) for m in masses]
    if any(b < a for a, b in zip(masses, masses[1:])):
        raise ValueError("masses must be sorted ascending")
    if burn_in_points > 0 and burn_in_step <= 0:
        raise ValueError("burn_in_step must be positive")
    if resource.n_sites != template.n_sites:
        raise DimensionError("resource and model site counts differ")
    n = template.n_sites
    if dense_cross is None:
        dense_cross = n <= 10
    ansatz = hva_schwinger_ansatz(resource, n_layers)
    # Staggered density (1/N) sum_j (-1)^j Z_j on the sector's basis states.
    density = ansatz.sector.z_values @ np.array([parity(j) for j in range(1, n + 1)]) / n

    def run_point(h: PauliSum, warm: np.ndarray, seed_k: int, cold: bool):
        best = {"variance": np.inf, "energy": np.inf}

        def objective(values: np.ndarray) -> float:
            energy, variance = energy_and_variance(h, ansatz, values)
            if energy < best["energy"]:
                best["energy"] = energy
                best["variance"] = variance
            return energy

        outcome = minimize(
            objective,
            warm,
            budget=budget,
            seed=seed_k,
            starts=4 if cold else 1,
            golden_cycles=60 if cold else 0,
        )
        return outcome, best["variance"]

    # Descending pass with burn-in annealing from above the scan window.
    # Every mass's Hamiltonian is built once; the window's are kept for the
    # ascending pass and the dense cross-check.
    burn_in = [masses[-1] + burn_in_step * k for k in range(burn_in_points, 0, -1)]
    found: dict[float, tuple] = {}
    hamiltonians: dict[float, PauliSum] = {}
    warm = np.zeros(ansatz.parameter_count)
    for k, mass in enumerate(burn_in + list(reversed(masses))):
        h = build_schwinger(replace(template, mass=mass))
        outcome, variance = run_point(h, warm, seed + k, cold=(k == 0))
        warm = outcome.point
        if k >= len(burn_in):
            found[mass] = (outcome, variance)
            hamiltonians[mass] = h
    # Ascending refinement pass: re-solve each point warm-started from its
    # lower neighbor and keep the better energy; this symmetrizes branch
    # tracking across the transition.
    warm = found[masses[0]][0].point
    for k, mass in enumerate(masses):
        outcome, variance = run_point(hamiltonians[mass], warm, seed + 1000 + k, cold=False)
        if outcome.value < found[mass][0].value:
            found[mass] = (outcome, variance)
        warm = found[mass][0].point
    records = []
    for mass in masses:
        outcome, variance = found[mass]
        dense_value = None
        if dense_cross:
            from .structure import SectorSpec, prepare_sector_state

            ground = prepare_sector_state(hamiltonians[mass], SectorSpec(total_charge=0))
            dense_value = expectation(staggered_density_op(n), ground)
        records.append(
            ScanRecord(
                mass=mass,
                energy=outcome.value,
                variance=variance,
                order_parameter=float(density @ np.abs(ansatz.amplitudes(outcome.point)) ** 2),
                dense_order_parameter=dense_value,
                converged=outcome.converged,
                stop_reason=outcome.stop_reason,
            )
        )
    return records


def steepest_change(masses: Sequence[float], order: Sequence[float]) -> float:
    """Location of the largest |d(order)/d(mass)| along the scan.

    Central differences at interior grid points (less sensitive to
    point-to-point optimizer noise than adjacent differences); with only
    two points, the midpoint of the single interval.
    """
    masses = np.asarray(masses, dtype=float)
    order = np.asarray(order, dtype=float)
    if masses.size < 3:
        slopes = np.diff(order) / np.diff(masses)
        k = int(np.argmax(np.abs(slopes)))
        return float((masses[k] + masses[k + 1]) / 2.0)
    slopes = (order[2:] - order[:-2]) / (masses[2:] - masses[:-2])
    k = int(np.argmax(np.abs(slopes)))
    return float(masses[k + 1])
