"""Real-time propagation.

First-order product formula: the Hamiltonian's terms are grouped greedily
into mutually commuting sets, and one sweep applies the exact exponential
of each group, ``exp(-i dt H_g)``, in group order.  Within a group every
factor commutes, so a group's exponential is built from its flip-mask
parts (one phase vector for the diagonal part, one rotation per flip
mask) and only the group order shapes the Trotter error.  A dense
eigendecomposition propagator serves as the exact reference; the error
diagnostic is the l2 distance between the two paths.  Its sector block is
decomposed in real arithmetic whenever it has no imaginary part, and its
one eigenvector array serves both ``V`` and ``V^H``.  Sweeps run in the
initial state's sector, which each commuting group must map into itself,
and yield states in that sector.

Plans are immutable and shareable; one evolution mutates one state under a
single-writer contract, and independent trajectories (e.g. points of a
parameter scan) parallelize at the task level with no shared mutable state.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .pauli import (
    CommutingExponential,
    DimensionError,
    InvariantViolation,
    PauliSum,
    PauliTerm,
    Sector,
    StateVector,
    check_dense,
    terms_commute,
)


@dataclass(frozen=True)
class EvolutionPlan:
    """A Trotterized evolution of a Hermitian Hamiltonian: total time, sweep
    count, and ``grouping``, the greedy partition of ``hamiltonian.terms``
    into commuting-within-group index sets, built here and only here."""

    hamiltonian: PauliSum
    total_time: float
    steps: int
    grouping: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self) -> None:
        if not self.hamiltonian.hermitian:
            raise InvariantViolation("evolution requires a Hermitian Hamiltonian")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        object.__setattr__(self, "grouping", greedy_commuting_groups(self.hamiltonian.terms))


def greedy_commuting_groups(terms: tuple[PauliTerm, ...]) -> tuple[tuple[int, ...], ...]:
    """First-fit partition: each term joins the earliest group it commutes
    with entirely.  On the lattice models this reproduces the even/odd bond
    split plus one diagonal group."""
    groups: list[list[int]] = []
    for i, term in enumerate(terms):
        for group in groups:
            if all(terms_commute(term, terms[j]) for j in group):
                group.append(i)
                break
        else:
            groups.append([i])
    return tuple(tuple(g) for g in groups)


def make_plan(h: PauliSum, total_time: float, steps: int) -> EvolutionPlan:
    return EvolutionPlan(h, float(total_time), int(steps))


def trotter_states(
    plan: EvolutionPlan, s0: StateVector, reverse: bool = False
) -> Iterator[StateVector]:
    """Yield the state after each sweep (``plan.steps`` items), swept on the
    amplitudes of ``s0``'s sector and in it.  Raises InvariantViolation,
    at the first sweep, if a group maps the sector out of itself."""
    if s0.n_qubits != plan.hamiltonian.n_qubits:
        raise DimensionError("state and Hamiltonian qubit counts differ")
    n, sector, terms = plan.hamiltonian.n_qubits, s0.sector, plan.hamiltonian.terms
    dt = plan.total_time / plan.steps
    amps = s0.sector_amplitudes
    factors = []
    for group in plan.grouping[::-1] if reverse else plan.grouping:
        part = PauliSum(n, [(terms[i].coefficient, terms[i].letters) for i in group])
        factors.append(CommutingExponential(part, dt, sector))
    # The identity component commutes with everything; its phase is exact.
    offset_phase = np.exp(-1j * complex(plan.hamiltonian.constant_offset).real * dt)
    for _ in range(plan.steps):
        for factor in factors:
            amps = factor.apply(amps)
        # A new array every sweep: a yielded state is never overwritten.
        amps = offset_phase * amps
        yield StateVector(amps, sector)


def trotter_evolve(plan: EvolutionPlan, s0: StateVector, reverse: bool = False) -> StateVector:
    """First-order Trotter evolution by ``plan.total_time``.

    ``reverse=True`` applies each sweep's factors in reversed order, which
    together with negated time undoes a forward evolution exactly.
    """
    out = s0
    for out in trotter_states(plan, s0, reverse):
        pass
    drift = abs(out.norm() - s0.norm())
    if drift > 1e-10:
        raise InvariantViolation(f"norm drifted by {drift} during evolution")
    return out


class SpectralDecomposition:
    """Eigendecomposition of a Hermitian PauliSum on one sector (the full
    space by default) that ``h`` maps into itself, cached for reuse across
    many evolution times on the same operator.

    A block with no imaginary part (every lattice Hamiltonian and XY
    generator here) is decomposed as real symmetric, so its eigenvectors
    are real up to one cast to complex; other blocks go to the complex
    solver.  ``eigenvectors`` is the only d x d array kept: evolution forms
    ``V^H a`` as ``conj(conj(a) V)`` instead of storing the adjoint.
    """

    # Per Hamiltonian, alive as long as it is: {sector: decomposition}.
    _cache: "weakref.WeakKeyDictionary[PauliSum, dict]" = weakref.WeakKeyDictionary()

    def __init__(self, h: PauliSum, sector: Sector | None = None):
        self.sector = sector or Sector(h.n_qubits)
        block = self.sector.matrix(h)
        if not block.imag.any():
            block = block.real
        self.eigenvalues, vectors = np.linalg.eigh(block)
        # Freed before the cast: the peak is the block with the real
        # eigenvectors, or the eigenvectors with their complex copy.
        del block
        self.eigenvectors = vectors.astype(complex, copy=False)

    @classmethod
    def for_hamiltonian(
        cls, h: PauliSum, sector: Sector | None = None
    ) -> "SpectralDecomposition":
        """The decomposition of ``h`` on ``sector``, cached for as long as
        ``h`` lives.  ``check_dense`` runs first, so above the cap even a
        cached decomposition is refused with ResourceLimitError."""
        check_dense(h.n_qubits)
        sector = sector or Sector(h.n_qubits)
        per_sector = cls._cache.setdefault(h, {})
        if sector not in per_sector:
            per_sector[sector] = cls(h, sector)
        return per_sector[sector]

    def coordinates(self, amps: np.ndarray, support: np.ndarray | None = None) -> np.ndarray:
        """``V^H a`` as ``conj(conj(a) V)``, reading the one array ``V``; only
        its rows in ``support`` (every nonzero position of ``a``) if given."""
        v = self.eigenvectors
        if support is not None:
            amps, v = amps[support], v[support]
        return np.conj(np.conj(amps) @ v)

    def evolve_amplitudes(self, t: float, amps: np.ndarray) -> np.ndarray:
        """exp(-i H t) on amplitudes in the sector's coordinates."""
        return self.eigenvectors @ (np.exp(-1j * self.eigenvalues * t) * self.coordinates(amps))

    def evolve(self, t: float, s: StateVector) -> StateVector:
        """``exp(-i H t) s`` in the decomposition's sector."""
        amps = s.on(self.sector).sector_amplitudes
        return StateVector(self.evolve_amplitudes(t, amps), self.sector)


def exact_evolve(h: PauliSum, t: float, s0: StateVector) -> StateVector:
    """exp(-i H t)|s0> through the dense eigendecomposition on ``s0``'s
    sector, which ``h`` must map into itself."""
    return SpectralDecomposition.for_hamiltonian(h, s0.sector).evolve(t, s0)


def trotter_error(plan: EvolutionPlan, s0: StateVector) -> float:
    """l2 distance between the Trotter and exact propagations of ``s0``."""
    approx = trotter_evolve(plan, s0)
    exact = exact_evolve(plan.hamiltonian, plan.total_time, s0)
    return float(np.linalg.norm(approx.sector_amplitudes - exact.sector_amplitudes))
