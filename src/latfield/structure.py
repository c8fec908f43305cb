"""Hadron structure: sector eigenstates, time-separated correlators, the
lattice momentum-fraction transform, and the current-current tensor.

States are prepared by exact diagonalization restricted to a total-charge
``Sector`` (the charge of every computational basis state is classical, so
the restriction is exact) and returned in that sector.
Momentum is not projected on the open chain.  The correlators run in the
state's sector when the Hamiltonian and every operator keep it (charge
densities and currents do), and in the full space otherwise.

The continuum bilinear of the momentum-fraction distribution has no unique
staggered transcription; the correlator machinery is generic over caller
supplied operators and the shipped defaults (hopping-type bilinear, charge
density, continuity-consistent bond current) are modeling choices for the
Thirring chain.

A correlator table propagates each side to every time at once, one column
per time, and applies each operator once to the block of columns; it sums
in fixed row/column order, so repeated runs are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .evolution import SpectralDecomposition, propagate
from .models import parity
from .pauli import DimensionError, PauliSum, Sector, StateVector, letters_at


class EmptySectorError(ValueError):
    """No basis state carries the requested quantum numbers."""


class BoundaryError(ValueError):
    """An operator translation left the open chain."""


@dataclass(frozen=True)
class SectorSpec:
    """Quantum numbers selecting an eigenstate: total staggered charge and
    the energy rank inside the sector (0 = lowest)."""

    total_charge: int
    energy_rank: int = 0

    def __post_init__(self) -> None:
        if self.energy_rank < 0:
            raise ValueError("energy_rank must be non-negative")


@dataclass(frozen=True)
class CorrelatorRequest:
    op_a: PauliSum
    op_b: PauliSum
    times: tuple[float, ...]
    positions: tuple[int, ...]

    def __post_init__(self) -> None:
        times = tuple(float(t) for t in self.times)
        positions = tuple(int(y) for y in self.positions)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "positions", positions)
        _check_uniform(np.asarray(times), "times")
        _check_uniform(np.asarray(positions, dtype=float), "positions")


@dataclass(frozen=True)
class SpectralTable:
    grid: np.ndarray
    values: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        if grid.size > 1 and not np.all(np.diff(grid) > 0):
            raise ValueError("spectral grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))


def _check_uniform(grid: np.ndarray, name: str) -> None:
    if grid.size == 0:
        raise ValueError(f"{name} grid must be non-empty")
    if grid.size > 1:
        steps = np.diff(grid)
        if steps[0] <= 0 or not np.allclose(steps, steps[0], rtol=0, atol=1e-12):
            raise ValueError(f"{name} grid must be uniform and increasing")


# -- sector preparation ----------------------------------------------------


def sector_indices(n_qubits: int, total_charge: int) -> np.ndarray:
    """Sorted basis indices of one total staggered charge."""
    return Sector.of_charge(n_qubits, total_charge).indices


def sector_matrix(h: PauliSum, indices: np.ndarray) -> np.ndarray:
    """Dense block P h P on the given (sorted) basis indices.

    Raises InvariantViolation if ``h`` maps an index of the set outside
    it: an element counts when it exceeds 1e-12 of the largest element.
    """
    return Sector(h.n_qubits, indices).matrix(h)


def prepare_sector_state(h: PauliSum, sector: SectorSpec) -> StateVector:
    """Eigenstate of ``h`` with the requested charge and energy rank.

    Valid only for Hamiltonians commuting with the staggered charge, which
    all the lattice models here do; the restriction is then exact and the
    returned state, in its sector, is an eigenstate to dense accuracy.
    """
    basis = Sector.of_charge(h.n_qubits, sector.total_charge)
    if basis.dim == 0:
        raise EmptySectorError(
            f"no basis state has total charge {sector.total_charge}"
        )
    if sector.energy_rank >= basis.dim:
        raise EmptySectorError(
            f"energy rank {sector.energy_rank} exceeds sector dimension {basis.dim}"
        )
    decomp = SpectralDecomposition.for_hamiltonian(h, basis)
    return StateVector(decomp.eigenvector(sector.energy_rank), basis)


# -- operators --------------------------------------------------------------


def translate(op: PauliSum, shift: int) -> PauliSum:
    """Shift an operator by ``shift`` sites on the open chain."""
    n = op.n_qubits
    pairs = []
    for letters, coeff in op.items():
        moved = ["I"] * n
        for pos, letter in enumerate(letters):
            if letter == "I":
                continue
            new = pos + shift
            if not 0 <= new < n:
                raise BoundaryError(
                    f"translation by {shift} moves support off the open chain"
                )
            moved[new] = letter
        pairs.append((coeff, "".join(moved)))
    return PauliSum(n, pairs, constant_offset=op.constant_offset, hermitian=op.hermitian)


def hopping_bilinear(n_sites: int, site: int) -> PauliSum:
    """Default structure bilinear: the Hermitian hopping pair on the bond
    starting at 0-based ``site``: (X X + Y Y)/4."""
    if not 0 <= site < n_sites - 1:
        raise BoundaryError(f"bond {site} not on an open chain of {n_sites} sites")
    return PauliSum(
        n_sites,
        [
            (0.25, letters_at(n_sites, {site: "X", site + 1: "X"})),
            (0.25, letters_at(n_sites, {site: "Y", site + 1: "Y"})),
        ],
    )


def charge_density(n_sites: int, site: int) -> PauliSum:
    """Staggered charge density (Z_j + (-1)^j)/2 at 0-based ``site``."""
    if not 0 <= site < n_sites:
        raise BoundaryError(f"site {site} outside the chain")
    return PauliSum(
        n_sites,
        [(0.5, letters_at(n_sites, {site: "Z"}))],
        constant_offset=parity(site + 1) / 2.0,
    )


def thirring_bond_current(n_sites: int, site: int) -> PauliSum:
    """Bond current on (site, site+1) satisfying the lattice continuity
    equation for the Thirring hopping strengths (-1)^(j+1)/2."""
    if not 0 <= site < n_sites - 1:
        raise BoundaryError(f"bond {site} not on an open chain of {n_sites} sites")
    w = -parity(site + 1) / 2.0  # (-1)^(j+1) at the 1-based bond index
    return PauliSum(
        n_sites,
        [
            (w / 2.0, letters_at(n_sites, {site: "X", site + 1: "Y"})),
            (-w / 2.0, letters_at(n_sites, {site: "Y", site + 1: "X"})),
        ],
    )


# -- correlators -------------------------------------------------------------


class _Propagator:
    """Propagation shared by the correlators, on amplitudes of one sector:
    ``psi``'s own sector when ``h`` and every operator map it into itself,
    the full space otherwise.  Every time is exact through
    ``evolution.propagate``, under the dense cap and over it."""

    def __init__(self, h: PauliSum, psi: StateVector, ops):
        psi.check_normalized()
        kept = all(psi.sector.closed_under(op) for op in (h, *ops))  # raises if qubit counts differ
        self.h, self.sector = h, psi.sector if kept else Sector(h.n_qubits)
        self.psi = psi.on(self.sector).sector_amplitudes

    def table(self, bra: np.ndarray, ket: np.ndarray, times, ops) -> np.ndarray:
        """<bra(t)| op |ket(t)>: one row per operator, one column per time,
        from one ``propagate`` of each side to every time and one block
        apply per operator."""
        times = np.asarray(times, dtype=float)
        bras = np.conjugate(propagate(self.h, times, bra, self.sector))
        kets = propagate(self.h, times, ket, self.sector)
        out = np.empty((len(ops), times.size), dtype=complex)
        for row, op in enumerate(ops):
            out[row] = np.einsum("it,it->t", bras, self.sector.apply(op, kets))
        return out


def two_point(h: PauliSum, psi: StateVector, req: CorrelatorRequest) -> np.ndarray:
    """C(y, t) = <psi| e^{iHt} A_y e^{-iHt} B_0 |psi> over the request grids.

    ``A_y`` is ``op_a`` translated by ``y`` sites.  Rows are positions,
    columns times.
    """
    translated = [translate(req.op_a, y) for y in req.positions]
    prop = _Propagator(h, psi, [req.op_b, *translated])
    return prop.table(prop.psi, prop.sector.apply(req.op_b, prop.psi), req.times, translated)


def time_ordered_current_correlator(
    h: PauliSum,
    psi: StateVector,
    current_a: Callable[[int], PauliSum],
    current_b: Callable[[int], PauliSum],
    positions: Sequence[int],
    times: Sequence[float],
) -> np.ndarray:
    """<psi| T{ J_a(y, t) J_b(0, 0) } |psi> with the convention
    T{A(t)B(0)} = A(t)B(0) for t >= 0 and B(0)A(t) for t < 0."""
    ops = [current_a(int(y)) for y in positions]
    ref = current_b(0)
    ref_adjoint = ref.adjoint()
    prop = _Propagator(h, psi, [ref, ref_adjoint, *ops])
    times = np.asarray(times, dtype=float)
    order = np.argsort(times)
    later, earlier = order[times[order] >= 0], order[times[order] < 0]
    table = np.empty((len(ops), times.size), dtype=complex)
    apply = prop.sector.apply
    table[:, later] = prop.table(prop.psi, apply(ref, prop.psi), times[later], ops)
    table[:, earlier] = prop.table(apply(ref_adjoint, prop.psi), prop.psi, times[earlier], ops)
    return table


# -- transforms ---------------------------------------------------------------


def pdf_transform(
    correlator: Sequence[complex],
    positions: Sequence[float],
    p_plus: float,
) -> SpectralTable:
    """Discrete momentum-fraction transform of a separation-space slice.

    ``f(x_k) = sqrt(p_plus / 2 pi) * dy * sum_m exp(-i x_k p_plus y_m) C(y_m)``
    on the symmetric frequency grid ``x_k = 2 pi k / (M dy p_plus)``.  The
    kernel sign is fixed so that a correlator oscillation ``exp(i k y)``
    appears at momentum fraction ``x = k / p_plus`` (the mirrored choice is
    the same transform relabeled ``x -> -x``).  The normalization makes the
    rectangle-rule Parseval identity exact: ``sum |f|^2 dx = sum |C|^2 dy``.
    """
    if p_plus <= 0:
        raise ValueError("p_plus must be positive")
    values = np.asarray(correlator, dtype=complex)
    ys = np.asarray(positions, dtype=float)
    if values.ndim != 1 or values.size != ys.size:
        raise DimensionError("correlator and position grids differ in length")
    _check_uniform(ys, "positions")
    m = ys.size
    dy = float(ys[1] - ys[0]) if m > 1 else 1.0
    ks = np.arange(m) - (m // 2)
    xs = 2.0 * np.pi * ks / (m * dy * p_plus)
    phases = np.exp(-1j * p_plus * np.outer(xs, ys))
    f = np.sqrt(p_plus / (2.0 * np.pi)) * dy * (phases @ values)
    meta = {
        "quadrature": "rectangle",
        "normalization": "sqrt(p_plus/(2*pi))*dy",
        "p_plus": float(p_plus),
        "delta_y": dy,
    }
    return SpectralTable(grid=xs, values=f, metadata=meta)


def hadronic_tensor(
    h: PauliSum,
    psi: StateVector,
    current_a: Callable[[int], PauliSum],
    q_grid: Sequence[tuple[float, float]],
    positions: Sequence[int],
    times: Sequence[float],
    current_b: Callable[[int], PauliSum] | None = None,
) -> SpectralTable:
    """Real part of the spacetime Fourier transform of the time-ordered
    current-current correlator, sampled at (omega, k) pairs.

    ``W(omega, k) = Re sum_{y,t} dt dy exp(i (omega t - k y)) C_T(y, t)``.
    The returned grid is the row index of ``q_grid`` (the pairs live in the
    metadata); slices at fixed k are the usual frequency scans.
    """
    pos = np.asarray(positions, dtype=float)
    ts = np.asarray(times, dtype=float)
    _check_uniform(pos, "positions")
    _check_uniform(ts, "times")
    if current_b is None:
        current_b = current_a
    table = time_ordered_current_correlator(h, psi, current_a, current_b, positions, times)
    dy = float(pos[1] - pos[0]) if pos.size > 1 else 1.0
    dt = float(ts[1] - ts[0]) if ts.size > 1 else 1.0
    # exp(i (omega t - k y)) factorises: the position sums of every pair in
    # one (pairs, positions) @ (positions, times) product, then the time sums.
    omegas, ks = np.array(q_grid, dtype=float).reshape(-1, 2).T
    by_pair = np.exp(-1j * np.outer(ks, pos)) @ table
    out = dt * dy * np.einsum("qt,qt->q", np.exp(1j * np.outer(omegas, ts)), by_pair)
    meta = {"q_pairs": [(float(w), float(k)) for w, k in q_grid], "delta_y": dy, "delta_t": dt}
    return SpectralTable(grid=np.arange(len(q_grid), dtype=float), values=out.real.astype(complex), metadata=meta)
