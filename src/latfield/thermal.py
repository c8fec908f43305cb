"""Thermal-ensemble dynamics.

The unnormalized Gibbs operator solves the symmetric imaginary-time
(Bloch) equation d rho/d beta = -(H rho + rho H)/2 with rho(0) = 1.  Its
solution is exp(-beta H), formed in closed form from the cached
eigendecomposition of H, V exp(-beta W) V^dag, and symmetrized against
rounding.

For observables the operator is decomposed into weighted ket/bra basis
pairs.  Each pair is evaluated the way a quantum processor would: kets are
propagated forward in real time and measured, with off-diagonal pairs
recovered from four superposition states (|a> +- |b>)/sqrt2 and
(|a> +- i|b>)/sqrt2.  Entries accumulate in storage order (fixed-order
reduction), so results are permutation-independent to rounding.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .evolution import SpectralDecomposition, make_plan, trotter_evolve
from .pauli import (
    DENSE_QUBIT_CAP,
    DimensionError,
    InvariantViolation,
    PauliSum,
    StateVector,
)

_GIBBS_MAGIC = b"LATGIBBS"


@dataclass(frozen=True)
class ThermalState:
    """Unnormalized Gibbs operator exp(-beta H0) with its trace recorded."""

    rho: np.ndarray
    beta: float
    h0: PauliSum
    trace: float

    def __post_init__(self) -> None:
        rho = np.asarray(self.rho, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise DimensionError("rho must be square")
        if np.abs(rho - rho.conj().T).max() > 1e-12 * max(1.0, np.abs(rho).max()):
            raise InvariantViolation("thermal state must be Hermitian")
        object.__setattr__(self, "rho", rho)

    @property
    def n_qubits(self) -> int:
        return int(self.rho.shape[0]).bit_length() - 1


@dataclass(frozen=True)
class PureStateEnsemble:
    """Weighted ket/bra basis pairs approximating a density operator."""

    entries: tuple[tuple[complex, int, int], ...]
    n_qubits: int
    trace_estimate: float

    def reconstruct(self) -> np.ndarray:
        dim = 2**self.n_qubits
        rho = np.zeros((dim, dim), dtype=complex)
        for chi, a, b in self.entries:
            rho[a, b] += chi
        return rho


def bloch_propagate(h0: PauliSum, beta: float, cap: int = DENSE_QUBIT_CAP) -> ThermalState:
    """The Gibbs operator exp(-beta H0), the solution of the symmetric
    imaginary-time equation at ``beta``."""
    if beta < 0:
        raise ValueError("beta must be non-negative")
    decomp = SpectralDecomposition.for_hamiltonian(h0, cap)
    v = decomp.eigenvectors
    rho = (v * np.exp(-beta * decomp.eigenvalues)) @ v.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return ThermalState(rho=rho, beta=float(beta), h0=h0, trace=float(np.trace(rho).real))


def decompose(ts: ThermalState, threshold: float) -> PureStateEnsemble:
    """All computational-basis matrix elements above the threshold, as
    weighted ket/bra pairs; threshold 0 keeps every nonzero element."""
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    entries = []
    trace = 0.0
    dim = ts.rho.shape[0]
    for a in range(dim):
        for b in range(dim):
            chi = complex(ts.rho[a, b])
            if abs(chi) > threshold:
                entries.append((chi, a, b))
                if a == b:
                    trace += chi.real
    return PureStateEnsemble(
        entries=tuple(entries),
        n_qubits=ts.n_qubits,
        trace_estimate=trace,
    )


def _evolved_basis(
    h1: PauliSum, t: float, n_qubits: int, cap: int, trotter_steps_per_unit: int
) -> np.ndarray:
    """Columns are the forward-evolved computational basis states."""
    if h1.n_qubits != n_qubits:
        raise DimensionError("ensemble and quench Hamiltonian sizes differ")
    if n_qubits <= cap:
        decomp = SpectralDecomposition.for_hamiltonian(h1, cap)
        v = decomp.eigenvectors
        return (v * np.exp(-1j * decomp.eigenvalues * t)) @ v.conj().T
    dim = 2**n_qubits
    cols = np.empty((dim, dim), dtype=complex)
    steps = max(1, int(np.ceil(abs(t) * trotter_steps_per_unit)))
    plan = make_plan(h1, t, steps)
    for k in range(dim):
        cols[:, k] = trotter_evolve(plan, StateVector.basis_state(n_qubits, k)).amplitudes
    return cols


def ensemble_observable(
    ensemble: PureStateEnsemble,
    h1: PauliSum,
    observable: PauliSum,
    t: float,
    cap: int = DENSE_QUBIT_CAP,
    trotter_steps_per_unit: int = 128,
) -> float:
    """Symmetrized ensemble estimate of Tr(O rho(t)) / Tr rho after a quench
    to ``h1``.

    Diagonal pairs are direct expectations on the evolved ket; off-diagonal
    pairs combine the four superposition expectations into the cross matrix
    element, and each entry contributes Re(chi * value), which realizes the
    Hermitian-symmetrized operator exactly.
    """
    if not ensemble.entries:
        raise ValueError("empty ensemble")
    if abs(ensemble.trace_estimate) < 1e-14:
        raise ValueError("ensemble trace vanishes; observable undefined")
    if observable.n_qubits != ensemble.n_qubits:
        raise DimensionError("observable size mismatch")
    evolved = _evolved_basis(h1, t, ensemble.n_qubits, cap, trotter_steps_per_unit)

    def expect(vec: np.ndarray) -> float:
        return np.vdot(vec, observable.apply_to(StateVector(vec)).amplitudes).real

    total = 0.0
    sqrt2 = np.sqrt(2.0)
    for chi, a, b in ensemble.entries:
        ka = evolved[:, a]
        if a == b:
            value = complex(expect(ka))
        else:
            kb = evolved[:, b]
            e_plus = expect((ka + kb) / sqrt2)
            e_minus = expect((ka - kb) / sqrt2)
            e_iplus = expect((ka + 1j * kb) / sqrt2)
            e_iminus = expect((ka - 1j * kb) / sqrt2)
            # <b(t)|O|a(t)> from the four superposition expectations.
            value = (e_plus - e_minus) / 2.0 + 1j * (e_iplus - e_iminus) / 2.0
        total += (chi * value).real
    return float(total / ensemble.trace_estimate)


# -- binary dump -------------------------------------------------------------


def dump_gibbs(ts: ThermalState, path) -> None:
    """Row-major complex doubles behind a 16-byte header (magic, n_qubits)."""
    with open(path, "wb") as fh:
        fh.write(_GIBBS_MAGIC)
        fh.write(struct.pack("<Q", ts.n_qubits))
        fh.write(np.ascontiguousarray(ts.rho, dtype=np.complex128).tobytes())


def load_gibbs(path, h0: PauliSum, beta: float) -> ThermalState:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _GIBBS_MAGIC:
            raise ValueError("not a Gibbs dump")
        (n_qubits,) = struct.unpack("<Q", fh.read(8))
        dim = 2**n_qubits
        rho = np.frombuffer(fh.read(), dtype=np.complex128).reshape(dim, dim)
    trace = float(np.trace(rho).real)
    return ThermalState(rho=rho.copy(), beta=beta, h0=h0, trace=trace)
