"""Jordan-Wigner mapping of fermionic mode operators onto Pauli strings.

Occupation convention: ``|1>`` is an occupied mode, so the number operator
is ``(I - Z)/2`` and the creation operator raises ``|0> -> |1>``:

    a_j^dag = Z_0 ... Z_{j-1} (X_j - i Y_j)/2

Mode indices are 0-based here.  The lattice models place their 1-based site
``j`` on mode ``j - 1``; staggered parity factors are evaluated at the
1-based index inside the model builders, not here.
"""

from __future__ import annotations

from .pauli import DimensionError, PauliSum


def _check_mode(j: int, n: int) -> None:
    if not 0 <= j < n:
        raise DimensionError(f"mode index {j} out of range for {n} modes")


def jw_creation(j: int, n: int) -> PauliSum:
    """Z-string-dressed raising operator a_j^dag (non-Hermitian, internal)."""
    _check_mode(j, n)
    string = "Z" * j
    pad = "I" * (n - j - 1)
    return PauliSum(
        n,
        [(0.5, string + "X" + pad), (-0.5j, string + "Y" + pad)],
        hermitian=False,
    )


def jw_annihilation(j: int, n: int) -> PauliSum:
    return jw_creation(j, n).adjoint()
