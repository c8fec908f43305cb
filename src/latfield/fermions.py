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


def jw_number(j: int, n: int) -> PauliSum:
    """n_j = a_j^dag a_j = (I - Z_j)/2."""
    _check_mode(j, n)
    letters = "I" * j + "Z" + "I" * (n - j - 1)
    return PauliSum(n, [(-0.5, letters)], constant_offset=0.5)


def jw_hopping(i: int, j: int, c: float, n: int) -> PauliSum:
    """Hermitian hopping ``c (a_i^dag a_j + a_j^dag a_i)``.

    For adjacent modes this reduces to ``c/2 (X_i X_j + Y_i Y_j)``; farther
    pairs carry the Z string in between.
    """
    if i == j:
        raise ValueError("hopping needs two distinct modes")
    _check_mode(i, n)
    _check_mode(j, n)
    term = jw_creation(i, n).product(jw_annihilation(j, n))
    both = term + term.adjoint()
    return PauliSum(n, [(c * w, s) for s, w in both.items()],
                    constant_offset=c * both.constant_offset)


def jw_density_density(i: int, j: int, c: float, n: int) -> PauliSum:
    """``c n_i n_j`` expanded into I/Z/ZZ terms."""
    if i == j:
        raise ValueError("density-density needs two distinct modes")
    prod = jw_number(i, n).product(jw_number(j, n))
    return c * prod

