"""Property tests: the flip-mask kernels and the sector eigenbasis against the
dense oracles on random Pauli sums of up to six qubits."""

import numpy as np
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from latfield.evolution import SpectralDecomposition, make_plan, trotter_evolve
from latfield.models import basis_charge
from latfield.pauli import PauliSum, Sector, StateVector, to_dense
from latfield.structure import sector_indices, sector_matrix

from oracles import dense_sum, random_state

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)

coefficients = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def pauli_sums(draw, max_qubits=6, max_terms=8):
    n = draw(st.integers(1, max_qubits))
    letters = st.text("IXYZ", min_size=n, max_size=n)
    pairs = draw(st.lists(st.tuples(coefficients, letters), max_size=max_terms))
    return PauliSum(n, pairs, constant_offset=draw(coefficients))


@st.composite
def charge_conserving_sums(draw, max_qubits=6, max_terms=8, currents=False):
    """Diagonal strings plus hoppings c (X_i X_j + Y_i Y_j) on a Z background,
    which preserve the number of set bits and hence the staggered charge.
    With ``currents``, a hopping may instead be the current
    c (X_i Y_j - Y_i X_j), whose matrix elements are imaginary."""
    n = draw(st.integers(2, max_qubits))
    pairs = []
    for _ in range(draw(st.integers(0, max_terms))):
        background = list(draw(st.text("IZ", min_size=n, max_size=n)))
        coeff = draw(coefficients)
        if draw(st.booleans()):
            sites = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
            i, j = draw(sites)
            if currents and draw(st.booleans()):
                hopping = (("X", "Y", coeff), ("Y", "X", -coeff))
            else:
                hopping = (("X", "X", coeff), ("Y", "Y", coeff))
            for a, b, c in hopping:
                background[i], background[j] = a, b
                pairs.append((c, "".join(background)))
        else:
            pairs.append((coeff, "".join(background)))
    return PauliSum(n, pairs, constant_offset=draw(coefficients))


def states(n):
    seeds = st.integers(0, 2**32 - 1)
    return seeds.map(lambda seed: random_state(n, np.random.default_rng(seed)))


@PROPERTY_SETTINGS
@given(data=st.data(), h=pauli_sums())
def test_apply_to_matches_dense_oracle(data, h):
    amps = data.draw(states(h.n_qubits))
    out = h.apply_to(StateVector(amps)).amplitudes
    np.testing.assert_allclose(out, dense_sum(h) @ amps, rtol=0, atol=1e-12)


@PROPERTY_SETTINGS
@given(h=pauli_sums())
def test_to_dense_matches_dense_oracle(h):
    np.testing.assert_allclose(to_dense(h), dense_sum(h), rtol=0, atol=1e-12)


@PROPERTY_SETTINGS
@given(data=st.data(), h=charge_conserving_sums(currents=True))
def test_sector_matrix_matches_dense_block(data, h):
    n = h.n_qubits
    charge = basis_charge(data.draw(st.integers(0, 2**n - 1)), n)
    idx = sector_indices(n, charge)
    expected = dense_sum(h)[np.ix_(idx, idx)]
    np.testing.assert_allclose(sector_matrix(h, idx), expected, rtol=0, atol=1e-12)
    amps = data.draw(states(n))[idx]
    gathered = Sector(n, idx).apply(h, amps)
    np.testing.assert_allclose(gathered, expected @ amps, rtol=0, atol=1e-12)


@PROPERTY_SETTINGS
@given(data=st.data(), h=pauli_sums(), t=st.floats(-1.5, 1.5))
def test_trotter_sweep_matches_group_exponentials(data, h, t):
    amps = data.draw(states(h.n_qubits))
    plan = make_plan(h, t, 1)
    expected = np.exp(-1j * t * h.constant_offset) * amps
    for group in plan.grouping:
        terms = [plan.terms[i] for i in group]
        part = PauliSum(h.n_qubits, [(term.coefficient, term.letters) for term in terms])
        expected = scipy.linalg.expm(-1j * t * dense_sum(part)) @ expected
    out = trotter_evolve(plan, StateVector(amps)).amplitudes
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)


@PROPERTY_SETTINGS
@given(data=st.data(), h=charge_conserving_sums(currents=True), t=st.floats(-1.5, 1.5))
def test_sector_decomposition_matches_dense_exponential(data, h, t):
    n = h.n_qubits
    sector = Sector.of_charge(n, basis_charge(data.draw(st.integers(0, 2**n - 1)), n))
    idx = sector.indices
    block = dense_sum(h)[np.ix_(idx, idx)]
    amps = data.draw(states(n))[idx]
    decomp = SpectralDecomposition(h, sector)
    expected = scipy.linalg.expm(-1j * t * block) @ amps
    np.testing.assert_allclose(decomp.evolve_amplitudes(t, amps), expected, rtol=0, atol=1e-12)
    np.testing.assert_allclose(decomp.eigenvalues, np.linalg.eigvalsh(block), rtol=0, atol=1e-12)
    if not block.imag.any():
        assert not decomp.eigenvectors.imag.any()
