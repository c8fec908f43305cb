"""Thermal-ensemble dynamics.

The unnormalized Gibbs operator solves the symmetric imaginary-time
(Bloch) equation d rho/d beta = -(H rho + rho H)/2 with rho(0) = 1.  Its
solution is exp(-beta H), formed in closed form from the cached
eigendecomposition of H, V exp(-beta W) V^dag, and symmetrized against
rounding.

For observables the operator is decomposed into weighted ket/bra basis
pairs chi_ab |a><b|.  A quantum processor would evaluate each pair on its
own: propagate the kets in real time and measure, recovering off-diagonal
pairs from four superposition states (|a> +- |b>)/sqrt2 and
(|a> +- i|b>)/sqrt2.  That evaluation is the test oracle; here the sum
Re sum_ab chi_ab <b|U^H O U|a> is contracted in closed form, with
M = U^H O U formed once per time from the cached eigendecomposition of the
quench Hamiltonian.  Entries are reduced in storage order, so results are
permutation-independent to rounding.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .evolution import SpectralDecomposition
from .pauli import DimensionError, InvariantViolation, PauliSum, to_dense

_GIBBS_MAGIC = b"LATGIBBS"


@dataclass(frozen=True)
class ThermalState:
    """An unnormalized Gibbs operator ``rho``, such as exp(-beta H0): a
    square Hermitian matrix on the full space."""

    rho: np.ndarray

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

    @property
    def trace(self) -> float:
        """Tr rho, the partition function of a Gibbs operator."""
        return float(np.trace(self.rho).real)


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


def bloch_propagate(h0: PauliSum, beta: float) -> ThermalState:
    """The Gibbs operator exp(-beta H0), the solution of the symmetric
    imaginary-time equation at ``beta``."""
    if beta < 0:
        raise ValueError("beta must be non-negative")
    decomp = SpectralDecomposition.for_hamiltonian(h0)
    v = decomp.eigenvectors
    rho = (v * np.exp(-beta * decomp.eigenvalues)) @ v.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return ThermalState(rho)


def decompose(ts: ThermalState, threshold: float) -> PureStateEnsemble:
    """All computational-basis matrix elements above the threshold, as
    weighted ket/bra pairs in row-major order; threshold 0 keeps every
    nonzero element."""
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    rows, cols = np.nonzero(np.abs(ts.rho) > threshold)
    values = ts.rho[rows, cols]
    trace = 0.0
    for chi in values[rows == cols].real.tolist():  # sequential, in row order
        trace += chi
    return PureStateEnsemble(
        entries=tuple(zip(values.tolist(), rows.tolist(), cols.tolist())),
        n_qubits=ts.n_qubits,
        trace_estimate=trace,
    )


def ensemble_observable(
    ensemble: PureStateEnsemble, h1: PauliSum, observable: PauliSum, t: float
) -> float:
    """Symmetrized ensemble estimate of Tr(O rho(t)) / Tr rho after a quench
    to ``h1``: each entry contributes Re(chi_ab <b(t)|O|a(t)>), which
    realizes the Hermitian-symmetrized operator exactly."""
    if not ensemble.entries:
        raise ValueError("empty ensemble")
    if abs(ensemble.trace_estimate) < 1e-14:
        raise ValueError("ensemble trace vanishes; observable undefined")
    if not observable.hermitian:
        raise InvariantViolation("ensemble observable requires a Hermitian PauliSum")
    if observable.n_qubits != ensemble.n_qubits or h1.n_qubits != ensemble.n_qubits:
        raise DimensionError("ensemble, quench Hamiltonian and observable sizes differ")
    decomp = SpectralDecomposition.for_hamiltonian(h1)
    v = decomp.eigenvectors
    u = (v * np.exp(-1j * decomp.eigenvalues * t)) @ v.conj().T
    m = u.conj().T @ to_dense(observable) @ u
    chi, a, b = zip(*ensemble.entries)
    total = np.sum((np.array(chi) * m[np.array(b), np.array(a)]).real)
    return float(total / ensemble.trace_estimate)


# -- binary dump -------------------------------------------------------------


def dump_gibbs(ts: ThermalState, path) -> None:
    """Row-major complex doubles behind a 16-byte header (magic, n_qubits)."""
    with open(path, "wb") as fh:
        fh.write(_GIBBS_MAGIC)
        fh.write(struct.pack("<Q", ts.n_qubits))
        fh.write(np.ascontiguousarray(ts.rho, dtype=np.complex128).tobytes())


def load_gibbs(path) -> ThermalState:
    """The ``ThermalState`` that ``dump_gibbs`` wrote to ``path``."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _GIBBS_MAGIC:
            raise ValueError("not a Gibbs dump")
        (n_qubits,) = struct.unpack("<Q", fh.read(8))
        dim = 2**n_qubits
        rho = np.frombuffer(fh.read(), dtype=np.complex128).reshape(dim, dim)
    return ThermalState(rho.copy())
