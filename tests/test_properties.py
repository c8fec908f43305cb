"""Property tests: the flip-mask kernels, the sector forms, sector states,
the commutation test, the Pauli product, the sector eigenbasis, the Lanczos
propagator, the correlator tables and the thermal ensemble contraction
against the oracles on random Pauli sums of up to six qubits (eight for the
sector sweeps and the propagator, ten for one correlator chain)."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import latfield.pauli
from latfield.evolution import (
    SpectralDecomposition,
    greedy_commuting_groups,
    make_plan,
    propagate,
    trotter_evolve,
    trotter_states,
)
from latfield.models import ThirringParams, basis_charge, build_thirring
from latfield.pauli import (
    InvariantViolation,
    PauliSum,
    PauliTerm,
    Sector,
    StateVector,
    expectation,
    terms_commute,
    to_dense,
)
from latfield.structure import (
    CorrelatorRequest,
    SectorSpec,
    charge_density,
    prepare_sector_state,
    sector_indices,
    sector_matrix,
    thirring_bond_current,
    time_ordered_current_correlator,
    translate,
    two_point,
)
from latfield.thermal import bloch_propagate, decompose, ensemble_observable

from oracles import (
    compile_by_terms,
    dense_block,
    dense_sum,
    expm_table,
    letterwise_commute,
    random_state,
    restricted_form,
    superposition_ensemble_value,
)

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)

coefficients = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def pauli_sums(draw, max_qubits=6, max_terms=8, min_qubits=1):
    n = draw(st.integers(min_qubits, max_qubits))
    letters = st.text("IXYZ", min_size=n, max_size=n)
    pairs = draw(st.lists(st.tuples(coefficients, letters), max_size=max_terms))
    return PauliSum(n, pairs, constant_offset=draw(coefficients))


@st.composite
def charge_conserving_sums(draw, max_qubits=6, max_terms=8, currents=False, min_qubits=2):
    """Diagonal strings plus hoppings c (X_i X_j + Y_i Y_j) on a Z background,
    which preserve the number of set bits and hence the staggered charge.
    With ``currents``, a hopping may instead be the current
    c (X_i Y_j - Y_i X_j), whose matrix elements are imaginary."""
    n = draw(st.integers(min_qubits, max_qubits))
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
        terms = [h.terms[i] for i in group]
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


@st.composite
def non_hermitian_sums(draw, max_qubits=6):
    """A Pauli sum times a complex scalar, so some masks carry complex weights."""
    h = draw(pauli_sums(max_qubits=max_qubits))
    return h * complex(draw(coefficients), draw(coefficients.filter(bool)))


@PROPERTY_SETTINGS
@given(
    data=st.data(),
    h=st.one_of(pauli_sums(), charge_conserving_sums(currents=True), non_hermitian_sums()),
    offset=st.one_of(st.just(0.0), coefficients),
)
def test_compile_matches_term_by_term_oracle(data, h, offset):
    """The table-built form against a per-term sum over the rows: the same
    gathers, diagonals within 1e-12 of the largest element, and the same
    first leaking mask, on the full space and on a drawn charge sector."""
    n = h.n_qubits
    h = h + PauliSum(n, [], constant_offset=offset)
    charge = basis_charge(data.draw(st.integers(0, 2**n - 1)), n)
    sector = data.draw(st.sampled_from([Sector(n), Sector.of_charge(n, charge)]))
    form, leak = latfield.pauli._compile(h, sector.indices)
    oracle_form, oracle_leak = compile_by_terms(h, sector.indices)
    assert leak == oracle_leak
    assert [x for x, _, _ in form] == [x for x, _, _ in oracle_form]
    largest = max((np.abs(d).max(initial=0.0) for _, d, _ in oracle_form), default=0.0)
    for (_, d, gather), (_, od, ogather) in zip(form, oracle_form):
        assert d.dtype == complex and d.shape == od.shape
        np.testing.assert_allclose(d, od, rtol=0, atol=1e-12 * largest)
        assert (gather is None and ogather is None) or (
            gather.dtype == np.int64 and np.array_equal(gather, ogather)
        )


@PROPERTY_SETTINGS
@given(
    data=st.data(),
    h=charge_conserving_sums(max_qubits=8, currents=True),
    t=st.one_of(st.just(0.0), st.just(40.0), st.floats(-5.0, 5.0)),
    zero=st.booleans(),
)
def test_propagate_over_the_cap_matches_dense_exponential(data, h, t, zero):
    n = h.n_qubits
    sector = Sector.of_charge(n, basis_charge(data.draw(st.integers(0, 2**n - 1)), n))
    idx = sector.indices
    amps = np.zeros(idx.size, dtype=complex) if zero else data.draw(states(n))[idx]
    expected = scipy.linalg.expm(-1j * t * dense_sum(h)[np.ix_(idx, idx)]) @ amps
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(latfield.pauli, "DENSE_QUBIT_CAP", 0)
        out = propagate(h, t, amps, sector)
        with pytest.raises(InvariantViolation, match="Hermitian"):
            propagate(h * 1j, t, amps, sector)
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)


def mirrored(h, complement, reversal):
    """``h`` plus its images under bit complement (X on every qubit, which
    negates Y and Z) and/or bit reversal, so the sum commutes with each."""
    pairs = [(c, letters) for letters, c in h.items()]
    if complement:
        pairs += [(c * (-1) ** (s.count("Y") + s.count("Z")), s) for c, s in pairs]
    if reversal:
        pairs += [(c, s[::-1]) for c, s in pairs]
    return PauliSum(h.n_qubits, pairs, constant_offset=h.constant_offset)


@PROPERTY_SETTINGS
@given(
    data=st.data(),
    h=charge_conserving_sums(currents=True),
    t=st.floats(-1.5, 1.5),
    symmetry=st.sampled_from(["complement", "reversal", "both"]),
)
def test_symmetric_sector_splits_and_matches_dense(data, h, t, symmetry):
    n = h.n_qubits
    h = mirrored(h, symmetry != "reversal", symmetry != "complement")
    if symmetry == "reversal":
        sector = Sector.of_charge(n, basis_charge(data.draw(st.integers(0, 2**n - 1)), n))
    else:
        sector = Sector.of_charge(n, 0)
    idx = sector.indices
    block = dense_sum(h)[np.ix_(idx, idx)]
    amps = data.draw(states(n))[idx]
    decomp = SpectralDecomposition(h, sector)
    # Complement maps the charge-0 sector into itself only for even n.
    if symmetry != "complement" or n % 2 == 0:
        assert decomp._blocks is not None
        assert all(np.iscomplexobj(v) == block.imag.any() for *_, v in decomp._blocks)
    np.testing.assert_allclose(decomp.eigenvalues, np.linalg.eigvalsh(block), rtol=0, atol=1e-12)
    expected = scipy.linalg.expm(-1j * t * block) @ amps
    np.testing.assert_allclose(decomp.evolve_amplitudes(t, amps), expected, rtol=0, atol=1e-12)
    v = decomp.eigenvectors
    np.testing.assert_allclose(v.conj().T @ v, np.eye(idx.size), rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        v.conj().T @ block @ v, np.diag(decomp.eigenvalues), rtol=0, atol=1e-12
    )


@PROPERTY_SETTINGS
@given(data=st.data(), n=st.integers(1, 10))
def test_terms_commute_matches_letterwise_oracle(data, n):
    a, b = (data.draw(st.text("IXYZ", min_size=n, max_size=n)) for _ in range(2))
    assert terms_commute(PauliTerm(1.0, a), PauliTerm(-0.5, b, True)) == letterwise_commute(a, b)


@PROPERTY_SETTINGS
@given(data=st.data(), n=st.integers(1, 4), scale=coefficients)
def test_product_matches_dense_product(data, n, scale):
    """The mask rule behind ``multiply``, through ``PauliSum.product``, on a
    Hermitian and a complex-weighted sum, against the dense matrix product."""
    a, b = (data.draw(pauli_sums(max_qubits=n, min_qubits=n)) for _ in range(2))
    a = a * complex(1.0, scale)
    expected = dense_sum(a) @ dense_sum(b)
    np.testing.assert_allclose(
        dense_sum(a.product(b)), expected, rtol=0, atol=1e-12 * max(1.0, np.abs(expected).max())
    )


@PROPERTY_SETTINGS
@given(h=pauli_sums(max_terms=16))
def test_greedy_groups_match_letterwise_oracle(h):
    terms = h.terms
    groups = []
    for i, term in enumerate(terms):
        for group in groups:
            if all(letterwise_commute(term.letters, terms[j].letters) for j in group):
                group.append(i)
                break
        else:
            groups.append([i])
    oracle = tuple(tuple(group) for group in groups)
    assert greedy_commuting_groups(terms) == oracle
    assert make_plan(h, 1.0, 1).grouping == oracle


@PROPERTY_SETTINGS
@given(data=st.data(), h=st.one_of(pauli_sums(), charge_conserving_sums(currents=True)))
def test_sector_form_matches_restricted_oracle(data, h):
    """Same arrays bit for bit; the leak test is at least as strict."""
    n = h.n_qubits
    sector = Sector.of_charge(n, basis_charge(data.draw(st.integers(0, 2**n - 1)), n))
    form, leak = sector._form(h)
    oracle_form, oracle_leak = restricted_form(h, sector.indices)
    assert oracle_leak is None or leak is not None
    assert len(form) == len(oracle_form)
    for (x, d, gather), (ox, od, ogather) in zip(form, oracle_form):
        assert x == ox and d.tobytes() == od.tobytes()
        assert (gather is None and ogather is None) or np.array_equal(gather, ogather)


@PROPERTY_SETTINGS
@given(
    data=st.data(),
    h=charge_conserving_sums(max_qubits=8, currents=True),
    t=st.floats(-1.5, 1.5),
)
def test_sector_trajectory_matches_full_space(data, h, t):
    """A sector state sweeps like the full space when every commuting group
    maps the sector into itself, and raises when one does not: with the
    terms in a drawn order, a greedy group may hold X_i X_j without its
    Y_i Y_j."""
    n = h.n_qubits
    items = data.draw(st.permutations(h.items()))
    h = PauliSum(n, [(coeff, letters) for letters, coeff in items], h.constant_offset)
    sector = Sector.of_charge(n, basis_charge(data.draw(st.integers(0, 2**n - 1)), n))
    amps = np.zeros(2**n, dtype=complex)
    amps[sector.indices] = data.draw(states(n))[sector.indices]
    s0 = StateVector(amps / np.linalg.norm(amps))
    plan = make_plan(h, t, 3)
    parts = [
        PauliSum(n, [(h.terms[i].coefficient, h.terms[i].letters) for i in group])
        for group in plan.grouping
    ]
    if all(sector.closed_under(part) for part in parts):
        sweeps = zip(trotter_states(plan, s0), trotter_states(plan, s0.on(sector)), strict=True)
        for full, restricted in sweeps:
            assert restricted.sector == sector
            np.testing.assert_allclose(
                restricted.amplitudes, full.amplitudes, rtol=0, atol=1e-12
            )
    else:
        with pytest.raises(InvariantViolation):
            next(trotter_states(plan, s0.on(sector)))


@PROPERTY_SETTINGS
@given(data=st.data(), h=st.one_of(charge_conserving_sums(currents=True), pauli_sums()))
def test_sector_state_reads_like_its_full_space_view(data, h):
    """A state in a drawn charge sector goes to the full space and back bit
    for bit and has its full-space view's expectation, also for a sum that
    leaves the sector (read there as P h P); narrowing never drops an
    amplitude, however small."""
    n = h.n_qubits
    sector = Sector.of_charge(n, basis_charge(data.draw(st.integers(0, 2**n - 1)), n))
    amps = data.draw(states(n))[sector.indices]
    s = StateVector(amps / np.linalg.norm(amps), sector)
    full = s.on(Sector(n))
    assert full.sector == Sector(n) and full.on(s.sector).sector == sector
    assert full.on(s.sector).sector_amplitudes.tobytes() == s.sector_amplitudes.tobytes()
    assert abs(expectation(h, s) - expectation(h, full)) <= 1e-12
    outside = np.setdiff1d(np.arange(2**n), sector.indices)
    leaked = full.amplitudes.copy()
    leaked[data.draw(st.sampled_from(outside.tolist()))] = data.draw(st.sampled_from([1e-300, 1j]))
    with pytest.raises(InvariantViolation, match="outside the sector"):
        StateVector(leaked).on(sector)


@PROPERTY_SETTINGS
@given(
    data=st.data(),
    h0=pauli_sums(max_qubits=5),
    beta=st.floats(0.0, 2.0),
    t=st.floats(-2.0, 2.0),
    fraction=st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
)
def test_ensemble_contraction_matches_superposition_oracle(data, h0, beta, t, fraction):
    n = h0.n_qubits
    h1 = data.draw(pauli_sums(max_qubits=n, min_qubits=n))
    observable = data.draw(pauli_sums(max_qubits=n, min_qubits=n))
    ts = bloch_propagate(h0, beta)
    # Below the largest element, which lies on the diagonal of the positive
    # Gibbs operator, so the ensemble keeps a nonzero trace.
    ensemble = decompose(ts, fraction * np.abs(ts.rho).max())
    value = ensemble_observable(ensemble, h1, observable, t)
    expected = superposition_ensemble_value(ensemble, h1, observable, t)
    assert value == pytest.approx(expected, abs=1e-12)


def reach(op):
    """The largest qubit any of ``op``'s strings acts on (0 for none)."""
    acted = (j for letters, _ in op.items() for j, c in enumerate(letters) if c != "I")
    return max(acted, default=0)


def sector_charge(sector):
    return basis_charge(int(sector.indices[0]), sector.n_qubits)


@st.composite
def correlator_cases(draw):
    """``(h, psi, op_a, op_b)``.  Either a charge-conserving sum on up to six
    qubits with psi a random state of a drawn charge sector, which is not an
    eigenstate, or its eigenstate of a drawn energy rank, and charge-conserving
    operators, ``op_a`` on the first qubits so that it translates, and
    ``op_b`` leaking charge if drawn, so the table runs on the full space; or
    the 10-site Thirring chain's charge-3, two-particle sector at a drawn
    energy rank, with its charge density or bond current."""
    if draw(st.booleans()):
        h = build_thirring(ThirringParams(10, 0.5, 0.8))
        psi = prepare_sector_state(h, SectorSpec(3, draw(st.integers(0, 44))))
        op_a = draw(st.sampled_from([charge_density(10, 0), thirring_bond_current(10, 0)]))
        return h, psi, op_a, charge_density(10, draw(st.integers(0, 9)))
    h = draw(charge_conserving_sums(currents=True))
    n = h.n_qubits
    sector = Sector.of_charge(n, basis_charge(draw(st.integers(0, 2**n - 1)), n))
    if draw(st.booleans()):
        rank = draw(st.integers(0, sector.dim - 1))
        psi = prepare_sector_state(h, SectorSpec(sector_charge(sector), rank))
    else:
        amps = draw(states(n))[sector.indices]
        psi = StateVector(amps / np.linalg.norm(amps), sector)
    small = draw(charge_conserving_sums(max_qubits=n, max_terms=3, currents=True))
    op_a = PauliSum(
        n, [(c, s + "I" * (n - small.n_qubits)) for s, c in small.items()], small.constant_offset
    )
    op_b = draw(charge_conserving_sums(max_qubits=n, min_qubits=n, max_terms=3, currents=True))
    if draw(st.booleans()):
        leak = ["I"] * n
        leak[draw(st.integers(0, n - 1))] = draw(st.sampled_from("XY"))
        op_b = op_b + PauliSum(n, [(draw(st.floats(0.1, 1.0)), "".join(leak))])
    return h, psi, op_a, op_b


@settings(max_examples=40, deadline=None)
@given(
    case=correlator_cases(),
    start=st.floats(-3.0, 1.0),
    step=st.floats(0.05, 1.0),
    count=st.integers(1, 6),
    lanczos=st.booleans(),
)
def test_correlator_tables_match_expm_oracle(case, start, step, count, lanczos):
    """``two_point`` and the time-ordered correlator, under the dense rule and
    (the cap at 0) by Lanczos, against both sides propagated by ``expm`` of
    the dense block: the full space's on up to six qubits, exact whichever
    space the table picks, and psi's sector block on the 10-site chain,
    whose operators keep the charge."""
    h, psi, op_a, op_b = case
    n = h.n_qubits
    positions = tuple(range(n - reach(op_a)))
    times = tuple(start + step * np.arange(count))
    translated = [translate(op_a, y) for y in positions]
    indices = psi.sector.indices if n == 10 else np.arange(2**n)
    h_block, b_block = dense_block(h, indices), dense_block(op_b, indices)
    a_blocks = [dense_block(op, indices) for op in translated]
    amps = psi.amplitudes[indices]
    with pytest.MonkeyPatch.context() as patch:
        if lanczos:
            patch.setattr(latfield.pauli, "DENSE_QUBIT_CAP", 0)
        table = two_point(h, psi, CorrelatorRequest(op_a, op_b, times, positions))
        ordered = time_ordered_current_correlator(
            h, psi, lambda y: translate(op_a, y), lambda y: op_b, positions, times
        )
    later = expm_table(h_block, amps, b_block @ amps, a_blocks, times)
    earlier = expm_table(h_block, b_block.conj().T @ amps, amps, a_blocks, times)
    np.testing.assert_allclose(table, later, rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        ordered, np.where(np.asarray(times) >= 0, later, earlier), rtol=0, atol=1e-12
    )
