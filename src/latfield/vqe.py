"""Variational ground-state search with energy-variance self-verification.

Ansatz circuits are sequences of layers acting on the amplitudes of their
initial state, in that state's ``Sector``.  A generator layer evolves the
state by ``exp(-i theta G)`` under one shared angle, through G's
eigendecomposition on the sector (desk-scale only).  A local-Z layer
carries one angle per qubit.  The Schwinger ansatz keeps the
bare vacuum's zero charge, so it runs in that sector, of dimension
C(N, N/2) instead of 2^N; the phase scan is that ansatz plus the objective.

Every evaluation returns energy and variance together (the variance is
free once H|psi> is in hand) and, when asked, the exact gradient by
adjoint differentiation (Jones & Gacon, arXiv:2009.02823): the forward
pass keeps each layer's output, and a backward pass carries
``lam = H|psi>`` back through the inverse layers, reading each layer's
derivative on the way.  A generator layer works in its eigenbasis
coordinates, and the ansatz keeps its initial state's, so a 12-site
energy-and-gradient evaluation of two XY layers costs six products with
the generator's four real symmetry blocks (each about a tenth of a dense
924-state product) against three for the energy.  Each layer keeps its
forward phases, and the backward pass carries ``lam`` by their conjugates.

The optimizer is scipy's L-BFGS-B on those evaluations, within a budget
that counts energies plus gradients; a cold start at a stationary point
descends from the best of seeded draws.  Every optimization reports why
it stopped: gradient tolerance, budget, or a line search that could not
lower the energy.  Evaluations and reductions run in fixed order, so
results reproduce exactly for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .evolution import SpectralDecomposition
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
    DimensionError,
    InvariantViolation,
    PauliSum,
    Sector,
    StateVector,
    expectation,
)


@dataclass(frozen=True)
class GeneratorLayer:
    """exp(-i theta G) under one shared angle, applied in the eigenbasis of
    G on the sector, whether or not the terms of G commute."""

    generator: PauliSum

    def __post_init__(self) -> None:
        if not self.generator.hermitian:
            raise InvariantViolation("layer generators must be Hermitian")

    @property
    def arity(self) -> int:
        return 1

    def forward(self, theta: float, amps: np.ndarray, sector: Sector, start: list | None = None):
        """``(exp(-i theta G) amps, memo)``, where ``memo``, the phases
        ``exp(-i theta w)`` and the output's eigenbasis coordinates, is what
        ``backward`` needs.  ``start``, a list kept by the caller for one fixed
        ``amps``, holds ``amps``'s coordinates with the decomposition they came
        from, and they are read again while that decomposition is the one in use."""
        decomp = SpectralDecomposition.for_hamiltonian(self.generator, sector=sector)
        if start is not None and (not start or start[0] is not decomp):
            start[:] = decomp, decomp.coordinates(amps)
        coords = decomp.coordinates(amps) if start is None else start[1]
        phase = np.exp(-1j * theta * decomp.eigenvalues)
        coords = phase * coords
        return decomp.expand(coords), (phase, coords)

    def backward(self, theta: float, lam: np.ndarray, out: np.ndarray, memo, sector, carry):
        """``(dE/dtheta, lam before the layer, or None unless carry)`` from
        ``lam``, the adjoint state at the layer's output ``out``: the
        derivative is ``2 Im <lam|G|out>``, read in the eigenbasis, and
        ``lam`` goes back through the inverse layer, by the kept phases' conjugate."""
        decomp = SpectralDecomposition.for_hamiltonian(self.generator, sector=sector)
        (phase, coords), mu = memo, decomp.coordinates(lam)
        carried = decomp.expand(np.conj(phase) * mu) if carry else None
        return 2.0 * np.vdot(mu, decomp.eigenvalues * coords).imag, carried


@dataclass(frozen=True)
class LocalZLayer:
    """Independent Z rotations exp(-i theta_j (delta/2) Z_j), one angle per qubit."""

    n_qubits: int
    half_delta: float

    @property
    def arity(self) -> int:
        return self.n_qubits

    def forward(self, thetas: np.ndarray, amps: np.ndarray, sector: Sector, start=None):
        """As ``GeneratorLayer.forward``; the memo is the phase vector, and
        ``start`` is not read."""
        phase = np.exp(-1j * self.half_delta * (sector.z_values @ thetas))
        return phase * amps, phase

    def backward(self, thetas, lam: np.ndarray, out: np.ndarray, memo, sector, carry):
        """As ``GeneratorLayer.backward``, one derivative per qubit:
        ``2 (delta/2) Im(conj(lam) out) . z_j``."""
        derivative = 2.0 * self.half_delta * (np.imag(np.conj(lam) * out) @ sector.z_values)
        return derivative, (np.conj(memo) * lam if carry else None)


@dataclass(frozen=True)
class Ansatz:
    """Layered parameterized circuit plus its initial state, run in that
    state's sector.  The initial state is fixed: a new one needs a new
    ``Ansatz``, as the first layer keeps its coordinates."""

    layers: tuple
    initial_state: StateVector
    # The first layer's ``start``: the initial state's coordinates, kept with
    # their decomposition and computed once, not on every evaluation.
    _start: list = field(default_factory=list, init=False, repr=False, compare=False)

    @property
    def sector(self) -> Sector:
        return self.initial_state.sector

    @property
    def n_qubits(self) -> int:
        return self.initial_state.n_qubits

    @property
    def parameter_count(self) -> int:
        return sum(layer.arity for layer in self.layers)

    def trajectory(self, point: Sequence[float]) -> tuple[np.ndarray, list]:
        """``(prepared amplitudes, steps)``: the one forward pass, keeping
        ``(layer, angle, output, memo)`` for every layer in order."""
        values = np.atleast_1d(np.asarray(point, dtype=float))
        if not np.isfinite(values).all():
            raise ValueError("parameters must be finite")
        if values.size != self.parameter_count:
            raise DimensionError(
                f"ansatz takes {self.parameter_count} parameters, got {values.size}"
            )
        amps, steps, cursor = self.initial_state.sector_amplitudes, [], 0
        for layer in self.layers:
            chunk = values[cursor : cursor + layer.arity]
            cursor += layer.arity
            angle = chunk if layer.arity > 1 else float(chunk[0])
            start = None if steps else self._start
            amps, memo = layer.forward(angle, amps, self.sector, start)
            steps.append((layer, angle, amps, memo))
        return amps, steps

    def prepare(self, point: Sequence[float]) -> StateVector:
        return StateVector(self.trajectory(point)[0], self.sector)


@dataclass(frozen=True)
class VqeResult:
    best_params: tuple[float, ...]
    energy: float
    variance: float
    energy_calls: int
    gradient_calls: int
    trace: tuple[tuple[float, float, tuple[float, ...]], ...]
    converged: bool
    stop_reason: str

    @property
    def evaluations(self) -> int:
        return self.energy_calls + self.gradient_calls


# -- ansatz constructors -------------------------------------------------


def _single_excitation_generator(i: int, j: int, n: int) -> PauliSum:
    """Hermitian G with exp(-i theta G) = exp(theta (a_i^dag a_j - a_j^dag a_i))."""
    from .fermions import jw_annihilation, jw_creation

    # a_i^dag a_j - a_j^dag a_i is anti-Hermitian, and i times it is G; for
    # i != j it has no identity component.
    hop = jw_creation(i, n).product(jw_annihilation(j, n))
    return PauliSum(n, [(1j * c, s) for s, c in (hop - hop.adjoint()).items()])


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
    return Ansatz(layers, bare_vacuum(params.n_sites).on(Sector.of_charge(params.n_sites, 0)))


# -- objective -----------------------------------------------------------


def energy_and_gradient(
    h: PauliSum, ansatz: Ansatz, point: Sequence[float], gradient: bool = True
) -> tuple[float, float, np.ndarray | None]:
    """``energy_and_variance`` plus, unless ``gradient`` is False, the exact
    gradient of the energy by adjoint differentiation: a backward pass
    carries ``lam = H|psi>`` through the inverse layers and reads each
    layer's derivative at its output ``psi``, ``2 Im <lam|G|psi>`` for a
    generator layer and ``2 (delta/2) Im(conj(lam) psi) . z_j`` for a
    local-Z layer."""
    if h.n_qubits != ansatz.n_qubits:
        raise DimensionError("Hamiltonian and ansatz qubit counts differ")
    amps, steps = ansatz.trajectory(point)
    lam = ansatz.sector.apply(h, amps)
    energy = complex(np.vdot(amps, lam))
    if abs(energy.imag) > 1e-9 * max(1.0, abs(energy.real)):
        raise InvariantViolation("energy has an imaginary residue")
    variance = np.vdot(lam, lam).real - energy.real**2
    if not gradient:
        return energy.real, variance, None
    parts = []
    for k, (layer, angle, out, memo) in reversed(list(enumerate(steps))):
        derivative, lam = layer.backward(angle, lam, out, memo, ansatz.sector, carry=k > 0)
        parts.append(derivative)
    return energy.real, variance, np.hstack(parts[::-1]) if parts else np.zeros(0)


def energy_and_variance(
    h: PauliSum, ansatz: Ansatz, point: Sequence[float]
) -> tuple[float, float]:
    """(<H>, <H^2> - <H>^2) on the prepared state, in the ansatz's sector
    (``H`` must map it into itself).

    <H^2> comes from applying H once and taking the norm of H|psi>; the
    operator is never squared symbolically.
    """
    return energy_and_gradient(h, ansatz, point, gradient=False)[:2]


class _EnergyObjective:
    """``minimize``'s objective for <H> on an ansatz: keeps the variance at
    the lowest energy seen and, given a list, every evaluation in it."""

    def __init__(self, h: PauliSum, ansatz: Ansatz, trace: list | None = None):
        self.h, self.ansatz, self.trace = h, ansatz, trace
        self.energy = self.variance = np.inf

    def __call__(self, values: np.ndarray, gradient: bool):
        energy, variance, grad = energy_and_gradient(self.h, self.ansatz, values, gradient)
        if self.trace is not None:
            self.trace.append((energy, variance, tuple(float(v) for v in values)))
        if energy < self.energy:
            self.energy, self.variance = energy, variance
        return energy, grad


class _BudgetExhausted(Exception):
    pass


class _CountingObjective:
    """Budget-limited wrapper tracking the best point seen.  An energy
    counts 1 against the budget and its gradient 1 more."""

    def __init__(self, func: Callable, budget: int):
        self.func = func
        self.budget = budget
        self.energy_calls = self.gradient_calls = 0
        self.best_value = np.inf
        self.best_point: np.ndarray | None = None

    @property
    def remaining(self) -> int:
        return self.budget - self.energy_calls - self.gradient_calls

    def __call__(self, values: np.ndarray, gradient: bool = True):
        if self.remaining < 1 + gradient:
            raise _BudgetExhausted
        self.energy_calls += 1
        self.gradient_calls += gradient
        values = np.array(values, dtype=float)
        value, grad = self.func(values, gradient)
        if value < self.best_value:
            self.best_value = value
            self.best_point = values
        return value, grad


@dataclass(frozen=True)
class MinimizeOutcome:
    """The best point seen and its value.  ``stop_reason`` is "tolerance"
    (``converged``: the projected gradient fell below 1e-6), "budget" or
    "stalled" (the line search could not lower the value).  ``evaluations``
    counts energies plus gradients, as the budget does."""

    point: np.ndarray
    value: float
    energy_calls: int
    gradient_calls: int
    converged: bool
    stop_reason: str

    @property
    def evaluations(self) -> int:
        return self.energy_calls + self.gradient_calls


def minimize(
    func: Callable[[np.ndarray, bool], tuple[float, np.ndarray | None]],
    initial: Sequence[float],
    budget: int,
    seed: int = 0,
    starts: int = 1,
) -> MinimizeOutcome:
    """Deterministic L-BFGS-B minimization within an evaluation budget.

    ``func(values, gradient)`` returns ``(value, gradient)``, the gradient
    read only when asked for.  The budget counts every value and every
    gradient: one L-BFGS-B evaluation costs 2.  With ``starts > 1`` the
    descent starts from the lowest of the initial point and ``starts - 1``
    seeded draws within pi/2 of it per angle (valued alone), passing over
    an initial point whose gradient is exactly zero: L-BFGS-B cannot leave it.
    """
    # Imported here: it is this module's only use of scipy.optimize, whose
    # import takes about half a second.
    import scipy.optimize

    start = np.atleast_1d(np.asarray(initial, dtype=float))
    if budget < 2:
        raise ValueError("budget must allow one energy-and-gradient evaluation (2)")
    rng = np.random.default_rng(seed)
    objective = _CountingObjective(func, budget)
    try:
        if starts > 1:
            value, grad = objective(start)
            candidates = [(value, start)] if grad.any() else []
            for _ in range(starts - 1):
                draw = start + rng.uniform(-np.pi / 2, np.pi / 2, start.size)
                candidates.append((objective(draw, gradient=False)[0], draw))
            start = min(candidates, key=lambda candidate: candidate[0])[1]
        result = scipy.optimize.minimize(
            objective,
            start,
            jac=True,
            method="L-BFGS-B",
            # A memory longer than the parameter count: on these ansaetze
            # L-BFGS-B then needs about a third of the evaluations.
            options={"maxfun": objective.remaining // 2, "gtol": 1e-6, "ftol": 0, "maxcor": 100},
        )
        stop_reason = {0: "tolerance", 1: "budget"}.get(result.status, "stalled")
    except _BudgetExhausted:
        stop_reason = "budget"
    return MinimizeOutcome(
        point=objective.best_point,
        value=objective.best_value,
        energy_calls=objective.energy_calls,
        gradient_calls=objective.gradient_calls,
        converged=stop_reason == "tolerance",
        stop_reason=stop_reason,
    )


def optimize(
    h: PauliSum,
    ansatz: Ansatz,
    initial: Sequence[float],
    budget: int,
    seed: int = 0,
    starts: int = 1,
) -> VqeResult:
    """Energy minimization by ``minimize`` on adjoint energy-and-gradient
    evaluations, within a budget that counts energies plus gradients.

    The best-seen point is never worse than the initial one; exhausting the
    budget is reported through ``stop_reason``, not raised.  ``trace`` holds
    every evaluation in order.
    """
    trace: list[tuple[float, float, tuple[float, ...]]] = []
    objective = _EnergyObjective(h, ansatz, trace)
    outcome = minimize(objective, initial, budget, seed=seed, starts=starts)
    return VqeResult(
        best_params=tuple(float(v) for v in outcome.point),
        energy=outcome.value,
        variance=objective.variance,
        energy_calls=outcome.energy_calls,
        gradient_calls=outcome.gradient_calls,
        trace=tuple(trace),
        converged=outcome.converged,
        stop_reason=outcome.stop_reason,
    )


# -- mass scan ------------------------------------------------------------


@dataclass(frozen=True)
class ScanRecord:
    mass: float
    energy: float
    variance: float
    order_parameter: float
    dense_order_parameter: float | None
    optimization: MinimizeOutcome  # of the optimization whose result it is


def phase_scan(
    masses: Sequence[float],
    template: SchwingerParams,
    resource: ResourceParams,
    n_layers: int,
    budget: int,
    seed: int = 0,
) -> list[ScanRecord]:
    """VQE scan over the mass, reporting the staggered-density order
    parameter, plus a dense cross-value at 10 sites or fewer, where the
    oracle is cheap.

    The scan is traversed from the largest mass downward: large positive
    masses pin the ground state near the bare vacuum, where the all-zero
    parameter point is nearly optimal, and each point warm-starts the next
    so the optimizer tracks the ground-state branch across the transition.
    Six unreported burn-in masses, 0.25 apart above the top of the scan,
    anneal the warm start before the first reported point.
    """
    masses = [float(m) for m in masses]
    if any(b < a for a, b in zip(masses, masses[1:])):
        raise ValueError("masses must be sorted ascending")
    if resource.n_sites != template.n_sites:
        raise DimensionError("resource and model site counts differ")
    n = template.n_sites
    ansatz = hva_schwinger_ansatz(resource, n_layers)

    def run_point(h: PauliSum, warm: np.ndarray, seed_k: int):
        # The gradient vanishes at the all-zero point, so a warm start still
        # there (no descent has yet beaten the bare vacuum) starts cold.
        objective = _EnergyObjective(h, ansatz)
        outcome = minimize(objective, warm, budget, seed=seed_k, starts=1 if warm.any() else 4)
        return outcome, objective.variance

    # Descending pass with burn-in annealing from above the scan window.
    # Every mass's Hamiltonian is built once; the window's are kept for the
    # ascending pass and the dense cross-check.
    burn_in = [masses[-1] + 0.25 * k for k in range(6, 0, -1)]
    found: dict[float, tuple] = {}
    hamiltonians: dict[float, PauliSum] = {}
    warm = np.zeros(ansatz.parameter_count)
    for k, mass in enumerate(burn_in + list(reversed(masses))):
        h = build_schwinger(replace(template, mass=mass))
        outcome, variance = run_point(h, warm, seed + k)
        warm = outcome.point
        if k >= len(burn_in):
            found[mass] = (outcome, variance)
            hamiltonians[mass] = h
    # Ascending refinement pass: re-solve each point warm-started from its
    # lower neighbor and keep the better energy; this symmetrizes branch
    # tracking across the transition.
    warm = found[masses[0]][0].point
    for k, mass in enumerate(masses):
        outcome, variance = run_point(hamiltonians[mass], warm, seed + 1000 + k)
        if outcome.value < found[mass][0].value:
            found[mass] = (outcome, variance)
        warm = found[mass][0].point
    records = []
    for mass in masses:
        outcome, variance = found[mass]
        dense_value = None
        if n <= 10:
            from .structure import SectorSpec, prepare_sector_state

            ground = prepare_sector_state(hamiltonians[mass], SectorSpec(total_charge=0))
            dense_value = expectation(staggered_density_op(n), ground)
        records.append(
            ScanRecord(
                mass=mass,
                energy=outcome.value,
                variance=variance,
                order_parameter=order_parameter(ansatz, outcome.point),
                dense_order_parameter=dense_value,
                optimization=outcome,
            )
        )
    return records


def order_parameter(ansatz: Ansatz, point: Sequence[float]) -> float:
    """Staggered density (1/N) sum_j (-1)^j <Z_j> of the prepared state over
    its norm, which rounding leaves ulps off 1: the bare vacuum reads -1."""
    n = ansatz.n_qubits
    density = ansatz.sector.z_values @ np.array([parity(j) for j in range(1, n + 1)]) / n
    weights = np.abs(ansatz.prepare(point).sector_amplitudes) ** 2
    return float(density @ weights / weights.sum())


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
