"""Lattice model Hamiltonians and model-specific states and observables.

Site bookkeeping: physical sites are 1-based (staggered parity factors
``(-1)^j`` are always evaluated at the 1-based index), qubits are 0-based,
site ``j`` lives on qubit ``j - 1``.  The bare vacuum is ``|0101...>``
with site 1 in ``|0>``; it carries zero charge on every site and zero
electric flux beyond the boundary value.

Charge convention: the staggered charge at site ``j`` is
``q_j = (sigma^z_j + (-1)^j)/2``, which vanishes on the bare vacuum,
is -1 for an excitation on an odd site and +1 for one on an even site.
The electric flux on the bond right of site ``j`` follows from the
cumulative Gauss law ``L_j = eps_0 + sum_{i<=j} q_i``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .pauli import DimensionError, PauliSum, StateVector, letters_at


@dataclass(frozen=True)
class SchwingerParams:
    """Gauge-eliminated lattice Schwinger model on an open chain.

    ``mass`` is in units of 1/spacing; ``boundary_field`` is the electric
    flux entering from the left edge.
    """

    n_sites: int
    mass: float
    coupling: float
    spacing: float = 1.0
    boundary_field: float = 0.0

    def __post_init__(self) -> None:
        if self.n_sites < 2 or self.n_sites % 2:
            raise ValueError("n_sites must be even and >= 2")
        if self.spacing <= 0:
            raise ValueError("spacing must be positive")


@dataclass(frozen=True)
class ThirringParams:
    n_sites: int
    mass: float
    coupling: float

    def __post_init__(self) -> None:
        if self.n_sites < 2:
            raise ValueError("n_sites must be >= 2")


@dataclass(frozen=True)
class DeuteronSpec:
    """Harmonic-oscillator-basis deuteron truncation; only the published
    two- and three-level coefficient sets exist."""

    level_count: int

    def __post_init__(self) -> None:
        if self.level_count not in (2, 3):
            raise ValueError("level_count must be 2 or 3")


@dataclass(frozen=True)
class ResourceParams:
    """Power-law XY resource Hamiltonian plus transverse field and the
    strength of the per-qubit Z rotation generator."""

    n_sites: int
    j0: float = 1.0
    alpha: float = 1.5
    b_field: float = 0.3
    delta: float = 1.0

    def __post_init__(self) -> None:
        if self.n_sites < 2:
            raise ValueError("n_sites must be >= 2")
        if not 0 < self.alpha < 3:
            raise ValueError("alpha must lie in (0, 3)")


# -- helpers -------------------------------------------------------------


def parity(site: int) -> int:
    """(-1)^j at the 1-based site index."""
    return -1 if site % 2 else 1


def _hopping_pairs(n: int, bond: int, strength: float) -> list[tuple[float, str]]:
    """XX + YY on qubits (bond-1, bond) for 1-based bond index."""
    q = bond - 1
    return [
        (strength, letters_at(n, {q: "X", q + 1: "X"})),
        (strength, letters_at(n, {q: "Y", q + 1: "Y"})),
    ]


def bare_vacuum(n_sites: int) -> StateVector:
    """The zero-particle staggered state |0101...> (site 1 in |0>)."""
    if n_sites % 2:
        raise ValueError("bare vacuum needs an even site count")
    return StateVector.from_bits("01" * (n_sites // 2))


def particle_density(s: StateVector, n_sites: int) -> float:
    """Fraction of sites off the bare-vacuum pattern, in [0, 1], read in the
    state's sector."""
    if s.n_qubits != n_sites:
        raise DimensionError("state size does not match site count")
    weights = np.abs(s.sector_amplitudes)
    weights *= weights
    # The bare vacuum sets the odd qubits (even sites); a basis state is off
    # it on as many sites as the bits it differs in.
    vacuum = sum(1 << q for q in range(1, n_sites, 2))
    return float(weights @ np.bitwise_count(s.sector.indices ^ vacuum) / n_sites)


def basis_charge(index: int, n_sites: int) -> int:
    """Total staggered charge of a computational basis state."""
    total = 0
    for site in range(1, n_sites + 1):
        bit = index >> (site - 1) & 1
        z = 1 - 2 * bit
        total += (z + parity(site)) // 2
    return total


def reconstruct_efield(
    config: Sequence[int] | str, params: SchwingerParams
) -> np.ndarray:
    """Electric flux on the ``N - 1`` bonds of a classical occupation pattern.

    ``config`` lists qubit values site-1-first (``'0101'`` is the bare
    vacuum).  The flux follows the cumulative Gauss law; on the bare vacuum
    every bond carries exactly the boundary field.
    """
    bits = [int(b) for b in config]
    if len(bits) != params.n_sites:
        raise DimensionError("configuration length does not match n_sites")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("configuration must be 0/1 valued")
    flux = np.empty(params.n_sites - 1)
    acc = params.boundary_field
    for site in range(1, params.n_sites):
        z = 1 - 2 * bits[site - 1]
        acc += (z + parity(site)) / 2.0
        flux[site - 1] = acc
    return flux


# -- observables ----------------------------------------------------------


def total_z(n_sites: int) -> PauliSum:
    return PauliSum(n_sites, [(1.0, letters_at(n_sites, {q: "Z"})) for q in range(n_sites)])


def staggered_charge_op(n_sites: int) -> PauliSum:
    """Total charge sum_j (sigma^z_j + (-1)^j)/2; zero on the bare vacuum."""
    pairs = [(0.5, letters_at(n_sites, {q: "Z"})) for q in range(n_sites)]
    offset = sum(parity(j) for j in range(1, n_sites + 1)) / 2.0
    return PauliSum(n_sites, pairs, constant_offset=offset)


def staggered_density_op(n_sites: int) -> PauliSum:
    """Order parameter (1/N) sum_j (-1)^j sigma^z_j; -1 on the bare vacuum."""
    pairs = [
        (parity(j) / n_sites, letters_at(n_sites, {j - 1: "Z"}))
        for j in range(1, n_sites + 1)
    ]
    return PauliSum(n_sites, pairs)


# -- builders -------------------------------------------------------------


def build_schwinger(params: SchwingerParams) -> PauliSum:
    """Gauge-eliminated Schwinger Hamiltonian on ``n_sites`` qubits.

    Three pieces, in deterministic construction order:

    * hopping ``1/(4a) (XX + YY)`` on every bond,
    * staggered mass ``m/2 (-1)^j Z_j``,
    * electric energy ``g^2 a / 2 sum_bonds L_j^2`` with
      ``L_j = c_j + (1/2) sum_{i<=j} Z_i`` and
      ``c_j = eps_0 + (1/2) sum_{i<=j} (-1)^i``, expanded in closed form as
      ``L_j^2 = c_j^2 + j/4 + c_j sum_{i<=j} Z_i
      + (1/2) sum_{i<k<=j} Z_i Z_k``.  A ``Z_i Z_k`` string thus carries
      ``(g^2 a / 4) (N - k)``, one share per bond from ``k`` on.

    Strings are listed in the order that expansion first meets them.
    """
    n, a = params.n_sites, params.spacing
    coefficients: dict[str, float] = {}
    for bond in range(1, n):
        coefficients.update((s, c) for c, s in _hopping_pairs(n, bond, 1.0 / (4.0 * a)))
    singles = [letters_at(n, {q: "Z"}) for q in range(n)]
    if params.mass:
        coefficients.update((singles[q], params.mass / 2.0 * parity(q + 1)) for q in range(n))
    electric_scale = params.coupling**2 * a / 2.0
    offset, flux = 0.0, params.boundary_field
    for bond in range(1, n) if electric_scale != 0.0 else ():
        flux += parity(bond) / 2.0  # c_j
        offset += electric_scale * (bond * 0.25 + flux * flux)
        for site in range(1, bond + 1):
            if site < bond:
                pair = letters_at(n, {site - 1: "Z", bond - 1: "Z"})
                coefficients[pair] = electric_scale / 2.0 * (n - bond)
            if flux:
                single = singles[site - 1]
                coefficients[single] = coefficients.get(single, 0.0) + electric_scale * flux
    return PauliSum(n, [(c, s) for s, c in coefficients.items()], constant_offset=offset)


def build_thirring(params: ThirringParams) -> PauliSum:
    """Thirring spin-chain Hamiltonian: alternating-sign hopping, staggered
    mass, and nearest-neighbor ZZ coupling on the open chain's N-1 bonds."""
    n = params.n_sites
    pairs: list[tuple[float, str]] = []
    for bond in range(1, n):
        sign = -parity(bond)  # (-1)^(j+1): + on the first bond
        pairs.extend(_hopping_pairs(n, bond, sign / 4.0))
    for site in range(1, n + 1):
        pairs.append(
            (params.mass / 2.0 * parity(site), letters_at(n, {site - 1: "Z"}))
        )
    zz = params.coupling**2 / 4.0
    for bond in range(1, n):
        pairs.append((zz, letters_at(n, {bond - 1: "Z", bond: "Z"})))
    return PauliSum(n, pairs)


_DEUTERON_H2: list[tuple[float, str]] = [
    (0.218291, "ZI"),
    (-6.125, "IZ"),
    (-2.143304, "XX"),
    (-2.143304, "YY"),
]
_DEUTERON_H2_OFFSET = 5.906709
_DEUTERON_H3_EXTRA: list[tuple[float, str]] = [
    (-9.625, "IIZ"),
    (3.913119, "IXX"),
    (3.913119, "IYY"),
]
_DEUTERON_H3_EXTRA_OFFSET = 9.625


def build_deuteron(spec: DeuteronSpec | int) -> PauliSum:
    """Two- or three-level deuteron Hamiltonian with the published
    coefficients, stored to full printed precision."""
    if isinstance(spec, int):
        spec = DeuteronSpec(spec)
    if spec.level_count == 2:
        return PauliSum(2, _DEUTERON_H2, constant_offset=_DEUTERON_H2_OFFSET)
    pairs = [(c, s + "I") for c, s in _DEUTERON_H2] + _DEUTERON_H3_EXTRA
    offset = _DEUTERON_H2_OFFSET + _DEUTERON_H3_EXTRA_OFFSET
    return PauliSum(3, pairs, constant_offset=offset)


def build_resource_xy(params: ResourceParams) -> PauliSum:
    """All-to-all XY Hamiltonian with power-law couplings J0/|i-j|^alpha
    (each unordered pair once, J_ij/2 on XX and YY) plus a uniform Z field."""
    n = params.n_sites
    pairs: list[tuple[float, str]] = []
    for i in range(n):
        for j in range(i + 1, n):
            jij = params.j0 / abs(i - j) ** params.alpha
            pairs.append((jij / 2.0, letters_at(n, {i: "X", j: "X"})))
            pairs.append((jij / 2.0, letters_at(n, {i: "Y", j: "Y"})))
    for q in range(n):
        pairs.append((params.b_field, letters_at(n, {q: "Z"})))
    return PauliSum(n, pairs)


NAMED_MODELS = {
    "schwinger": (SchwingerParams, build_schwinger),
    "thirring": (ThirringParams, build_thirring),
    "deuteron": (DeuteronSpec, build_deuteron),
    "resource": (ResourceParams, build_resource_xy),
}
"""Each model kind that ``dump-hamiltonian`` writes: its parameter class and builder."""
