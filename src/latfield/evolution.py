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
one eigenvector array serves both ``V`` and ``V^H``.

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
    DENSE_QUBIT_CAP,
    CommutingExponential,
    DimensionError,
    InvariantViolation,
    PauliSum,
    PauliTerm,
    ResourceLimitError,
    Sector,
    StateVector,
    terms_commute,
)


@dataclass(frozen=True)
class EvolutionPlan:
    """A Trotterized evolution: Hamiltonian terms partitioned into
    commuting-within-group sets, total time, and sweep count."""

    hamiltonian: PauliSum
    total_time: float
    steps: int
    grouping: tuple[tuple[int, ...], ...]
    terms: tuple[PauliTerm, ...] = field(repr=False)

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        covered = sorted(i for group in self.grouping for i in group)
        if covered != list(range(len(self.terms))):
            raise InvariantViolation("grouping must partition the term set")
        for group in self.grouping:
            for a in range(len(group)):
                for b in range(a + 1, len(group)):
                    if not terms_commute(self.terms[group[a]], self.terms[group[b]]):
                        raise InvariantViolation(
                            "terms within a group must commute pairwise"
                        )


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
    if not h.hermitian:
        raise InvariantViolation("evolution requires a Hermitian Hamiltonian")
    terms = h.terms
    return EvolutionPlan(h, float(total_time), int(steps), greedy_commuting_groups(terms), terms)


def trotter_states(
    plan: EvolutionPlan, s0: StateVector, reverse: bool = False
) -> Iterator[StateVector]:
    """Yield the state after each sweep (``plan.steps`` items)."""
    if s0.n_qubits != plan.hamiltonian.n_qubits:
        raise DimensionError("state and Hamiltonian qubit counts differ")
    n = plan.hamiltonian.n_qubits
    dt = plan.total_time / plan.steps
    factors = []
    for group in plan.grouping[::-1] if reverse else plan.grouping:
        part = PauliSum(n, [(plan.terms[i].coefficient, plan.terms[i].letters) for i in group])
        factors.append(CommutingExponential(part, dt))
    # The identity component commutes with everything; its phase is exact.
    offset_phase = np.exp(-1j * complex(plan.hamiltonian.constant_offset).real * dt)
    amps = s0.amplitudes.copy()
    for _ in range(plan.steps):
        for factor in factors:
            amps = factor.apply(amps)
        amps = offset_phase * amps
        yield StateVector(amps)


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
        cls, h: PauliSum, cap: int = DENSE_QUBIT_CAP, sector: Sector | None = None
    ) -> "SpectralDecomposition":
        """The decomposition of ``h`` on ``sector``, cached for as long as
        ``h`` lives."""
        if h.n_qubits > cap:
            raise ResourceLimitError(
                f"eigendecomposition for {h.n_qubits} qubits exceeds cap {cap}"
            )
        sector = sector or Sector(h.n_qubits)
        per_sector = cls._cache.setdefault(h, {})
        if sector not in per_sector:
            per_sector[sector] = cls(h, sector)
        return per_sector[sector]

    def evolve_amplitudes(self, t: float, amps: np.ndarray) -> np.ndarray:
        """exp(-i H t) on amplitudes in the sector's coordinates."""
        phases = np.exp(-1j * self.eigenvalues * t)
        v = self.eigenvectors
        # V^H a as conj(conj(a) V): both products read the one array V.
        return v @ (phases * np.conj(np.conj(amps) @ v))

    def evolve(self, t: float, s: StateVector) -> StateVector:
        return self.sector.embed(self.evolve_amplitudes(t, self.sector.restrict(s)))


def exact_evolve(
    h: PauliSum, t: float, s0: StateVector, cap: int = DENSE_QUBIT_CAP
) -> StateVector:
    """exp(-i H t)|s0> through the dense eigendecomposition."""
    return SpectralDecomposition.for_hamiltonian(h, cap).evolve(t, s0)


def trotter_error(plan: EvolutionPlan, s0: StateVector, cap: int = DENSE_QUBIT_CAP) -> float:
    """l2 distance between the Trotter and exact propagations of ``s0``."""
    approx = trotter_evolve(plan, s0)
    exact = exact_evolve(plan.hamiltonian, plan.total_time, s0, cap)
    return float(np.linalg.norm(approx.amplitudes - exact.amplitudes))
