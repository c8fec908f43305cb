"""Exact-statevector simulation toolkit for 1+1D lattice field theories.

Everything a quantum processor would run here executes classically at desk
scale (<= ~20 qubits): Pauli-string Hamiltonians, Trotterized real-time
evolution, variational ground-state search with energy-variance
self-verification, hadron-structure correlators, and thermal-ensemble
dynamics.
"""

from .pauli import (
    DENSE_QUBIT_CAP,
    DimensionError,
    InvariantViolation,
    PauliSum,
    PauliTerm,
    ResourceLimitError,
    StateVector,
    expectation,
    multiply,
    serialize,
    deserialize,
    to_dense,
)

__version__ = "0.1.0"

__all__ = [
    "DENSE_QUBIT_CAP",
    "DimensionError",
    "InvariantViolation",
    "PauliSum",
    "PauliTerm",
    "ResourceLimitError",
    "StateVector",
    "expectation",
    "multiply",
    "serialize",
    "deserialize",
    "to_dense",
    "__version__",
]
