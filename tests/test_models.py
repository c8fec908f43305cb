import numpy as np
import pytest

from latfield.models import (
    DeuteronSpec,
    ResourceParams,
    SchwingerParams,
    ThirringParams,
    bare_vacuum,
    basis_charge,
    build_deuteron,
    build_resource_xy,
    build_schwinger,
    build_thirring,
    particle_density,
    reconstruct_efield,
    staggered_charge_op,
    staggered_density_op,
    total_z,
)
from latfield.pauli import (
    DimensionError,
    PauliSum,
    StateVector,
    expectation,
    letters_at,
    serialize,
    to_dense,
)

from oracles import build_thirring_fermionic, local_z, product_schwinger


def commutator_norm(a, b):
    return np.abs(a @ b - b @ a).max()


class TestSchwingerParams:
    def test_odd_sites_rejected(self):
        with pytest.raises(ValueError):
            SchwingerParams(5, 0.0, 1.0)

    def test_bad_spacing_rejected(self):
        with pytest.raises(ValueError):
            SchwingerParams(4, 0.0, 1.0, spacing=0.0)


class TestBuildSchwinger:
    def test_pure_hopping_limit(self):
        h = build_schwinger(SchwingerParams(2, 0.0, 0.0))
        assert len(h) == 2
        assert h.constant_offset == 0.0
        assert h.coefficient_of("XX") == pytest.approx(0.25)
        assert h.coefficient_of("YY") == pytest.approx(0.25)

    def test_bare_vacuum_energy_matches_dense_and_hand_value(self):
        params = SchwingerParams(4, 1.0, 1.0)
        h = build_schwinger(params)
        vac = bare_vacuum(4)
        dense_value = np.vdot(vac.amplitudes, to_dense(h) @ vac.amplitudes).real
        assert expectation(h, vac) == pytest.approx(dense_value, abs=1e-12)
        # Hand evaluation: hopping 0, mass -N m/2, electric flux 0 on vacuum.
        assert expectation(h, vac) == pytest.approx(-2.0, abs=1e-12)

    def test_matches_independent_symbolic_expansion(self):
        params = SchwingerParams(6, 0.7, 1.3, spacing=0.8, boundary_field=0.4)
        h = build_schwinger(params)
        n, a, g, eps0 = 6, 0.8, 1.3, 0.4
        coeffs: dict[str, float] = {}
        offset = 0.0
        for bond in range(1, n):
            coeffs[letters_at(n, {bond - 1: "X", bond: "X"})] = 1 / (4 * a)
            coeffs[letters_at(n, {bond - 1: "Y", bond: "Y"})] = 1 / (4 * a)
        for site in range(1, n + 1):
            key = letters_at(n, {site - 1: "Z"})
            coeffs[key] = coeffs.get(key, 0.0) + params.mass / 2 * (-1) ** site
        scale = g * g * a / 2
        for bond in range(1, n):
            c = eps0 + 0.5 * sum((-1) ** i for i in range(1, bond + 1))
            offset += scale * (c * c + bond / 4)
            for i in range(1, bond + 1):
                key = letters_at(n, {i - 1: "Z"})
                coeffs[key] = coeffs.get(key, 0.0) + scale * c
            for i in range(1, bond + 1):
                for k in range(i + 1, bond + 1):
                    key = letters_at(n, {i - 1: "Z", k - 1: "Z"})
                    coeffs[key] = coeffs.get(key, 0.0) + scale * 0.5
        assert h.constant_offset == pytest.approx(offset, abs=1e-13)
        for letters, value in coeffs.items():
            assert h.coefficient_of(letters).real == pytest.approx(value, abs=1e-13), letters
        assert len(h) == sum(1 for v in coeffs.values() if abs(v) > 1e-14)

    @pytest.mark.parametrize("n", range(2, 17, 2))
    @pytest.mark.parametrize("boundary_field", [0.0, 0.37])
    def test_closed_form_matches_product_expansion(self, n, boundary_field):
        rng = np.random.default_rng(n)
        drawn = (rng.uniform(-2.0, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0.3, 1.5))
        for mass, coupling, spacing in (drawn, (0.0, 1.3, 0.5)):
            params = SchwingerParams(n, mass, coupling, spacing, boundary_field)
            got, expected = build_schwinger(params), product_schwinger(params)
            assert [s for s, _ in got.items()] == [s for s, _ in expected.items()]
            for (_, a), (_, b) in zip(got.items(), expected.items()):
                assert abs(a - b) <= 1e-14 * max(1.0, abs(b))
            offset = expected.constant_offset
            assert abs(got.constant_offset - offset) <= 1e-14 * max(1.0, abs(offset))

    def test_closed_form_matches_product_expansion_through_cancellations(self):
        # With m/2 = g^2 a / 4 = 1/4, a running Z coefficient of the
        # term-by-term expansion passes through zero and is dropped, so that
        # builder lists the string again later.  The operators still agree.
        params = SchwingerParams(6, 0.5, 1.0)
        got, expected = build_schwinger(params), product_schwinger(params)
        assert dict(got.items()).keys() == dict(expected.items()).keys()
        for letters, value in expected.items():
            assert abs(got.coefficient_of(letters) - value) <= 1e-14
        assert got.constant_offset == pytest.approx(expected.constant_offset, abs=1e-14)

    def test_boundary_field_shift_touches_only_diagonal_linear_terms(self):
        base = build_schwinger(SchwingerParams(6, 0.3, 1.0, boundary_field=0.0))
        shifted = build_schwinger(SchwingerParams(6, 0.3, 1.0, boundary_field=0.7))
        for letters, coeff in base.items():
            weight = sum(1 for c in letters if c != "I")
            if "X" in letters or "Y" in letters or weight == 2:
                assert shifted.coefficient_of(letters) == pytest.approx(
                    complex(coeff), abs=1e-13
                )
        lone_z = letters_at(6, {0: "Z"})
        assert shifted.coefficient_of(lone_z) != base.coefficient_of(lone_z)

    def test_conserves_total_charge(self):
        for n in (4, 6, 8):
            h = to_dense(build_schwinger(SchwingerParams(n, 0.5, 1.0)))
            q = to_dense(total_z(n))
            assert commutator_norm(h, q) < 1e-13

    def test_neutral_sector_eigenstates_have_zero_staggered_charge(self):
        n = 6
        h = build_schwinger(SchwingerParams(n, 0.5, 1.0))
        charge = staggered_charge_op(n)
        neutral = [k for k in range(2**n) if basis_charge(k, n) == 0]
        block = to_dense(h)[np.ix_(neutral, neutral)]
        _, vecs = np.linalg.eigh(block)
        for col in range(vecs.shape[1]):
            state = np.zeros(2**n, dtype=complex)
            state[neutral] = vecs[:, col]
            assert expectation(charge, StateVector(state)) == pytest.approx(0.0, abs=1e-12)

    def test_golden_serialization_n4(self):
        # Hand expansion at N=4, m=1, g=1, a=1, eps0=0: hopping 1/(4a) on
        # three bonds; mass Z_j merged with the electric linear terms
        # (Z1: -1/2-1/2, Z2: +1/2-1/4, Z3: -1/2-1/4, Z4: +1/2); electric
        # ZZ from the squared cumulative flux (Z1Z2: 1/2, Z1Z3/Z2Z3: 1/4);
        # constant 1/4 + 1/4 + 1/2.  Pins coefficients, deterministic term
        # order, and shortest-round-trip float formatting at once.
        golden = (
            "1.0 IIII\n"
            "0.25 XXII\n"
            "0.25 YYII\n"
            "0.25 IXXI\n"
            "0.25 IYYI\n"
            "0.25 IIXX\n"
            "0.25 IIYY\n"
            "-1.0 ZIII\n"
            "0.25 IZII\n"
            "-0.75 IIZI\n"
            "0.5 IIIZ\n"
            "0.5 ZZII\n"
            "0.25 ZIZI\n"
            "0.25 IZZI\n"
        )
        assert serialize(build_schwinger(SchwingerParams(4, 1.0, 1.0))) == golden

    def test_deterministic_serialization_all_builders(self):
        params = SchwingerParams(6, -0.4, 1.1, spacing=0.5, boundary_field=0.2)
        assert serialize(build_schwinger(params)) == serialize(build_schwinger(params))
        tp = ThirringParams(5, 0.3, 0.7)
        assert serialize(build_thirring(tp)) == serialize(build_thirring(tp))
        assert serialize(build_deuteron(3)) == serialize(build_deuteron(3))
        rp = ResourceParams(5, 0.9, 1.2, 0.1, 0.8)
        assert serialize(build_resource_xy(rp)) == serialize(build_resource_xy(rp))


class TestBareVacuumAndDensity:
    def test_vacuum_bits(self):
        vac = bare_vacuum(4)
        assert np.argmax(np.abs(vac.amplitudes)) == 0b1010  # ket |0101>

    def test_odd_count_rejected(self):
        with pytest.raises(ValueError):
            bare_vacuum(5)

    def test_vacuum_density_zero(self):
        assert particle_density(bare_vacuum(6), 6) == 0.0

    def test_inverted_pattern_density_one(self):
        assert particle_density(StateVector.from_bits("1010"), 4) == pytest.approx(1.0)

    def test_pair_superposition_density(self):
        vac = bare_vacuum(4)
        pair = StateVector.from_bits("1001")
        mix = StateVector((vac.amplitudes + pair.amplitudes) / np.sqrt(2))
        assert particle_density(mix, 4) == pytest.approx(2 / (2 * 4))

    def test_full_space_density_stays_linear_in_memory(self):
        import tracemalloc

        n = 16
        rng = np.random.default_rng(3)
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state = StateVector(amps / np.linalg.norm(amps))
        bits = np.arange(2**n)[:, None] >> np.arange(n) & 1
        expected = (np.abs(state.amplitudes) ** 2 @ (bits != np.arange(n) % 2)).sum() / n
        tracemalloc.start()
        try:
            value = particle_density(state, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One (2^n, n) table alone would be 8 MiB.
        assert peak <= 2 * 2**20
        assert value == pytest.approx(expected, abs=1e-12)

    def test_mass_term_minimal_on_vacuum(self):
        n = 6
        mass_term = PauliSum(
            n,
            [(0.5 * (-1) ** j, letters_at(n, {j - 1: "Z"})) for j in range(1, n + 1)],
        )
        energies = [
            expectation(mass_term, StateVector.basis_state(n, k)) for k in range(2**n)
        ]
        vac_index = int(np.argmax(np.abs(bare_vacuum(n).amplitudes)))
        assert energies[vac_index] == pytest.approx(min(energies))


class TestEfieldReconstruction:
    def test_vacuum_flux_is_boundary_value(self):
        params = SchwingerParams(6, 0.0, 1.0)
        np.testing.assert_allclose(reconstruct_efield("010101", params), 0.0)
        params1 = SchwingerParams(6, 0.0, 1.0, boundary_field=1.0)
        np.testing.assert_allclose(reconstruct_efield("010101", params1), 1.0)

    def test_adjacent_pair_makes_unit_flux_string(self):
        # Pair excitation on bond 1 of the N=4 vacuum: flux deviates by one
        # unit on that bond only (hand cumulative sum: charges -1,+1,0,0).
        params = SchwingerParams(4, 0.0, 1.0)
        np.testing.assert_allclose(reconstruct_efield("1001", params), [-1.0, 0.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            reconstruct_efield("01", SchwingerParams(4, 0.0, 1.0))

    def test_basis_charge_values(self):
        assert basis_charge(0b1010, 4) == 0  # ket |0101>, bare vacuum
        assert basis_charge(0b1001, 4) == 0  # neutral pair
        assert basis_charge(0b1011, 4) == -1  # vacuum with site 1 excited

    def test_classical_flux_energy_matches_hamiltonian(self):
        # On any basis state the Hamiltonian's electric part must equal
        # (g^2 a / 2) sum of squared reconstructed fluxes; hopping is
        # off-diagonal and the mass is evaluated directly.
        params = SchwingerParams(6, 0.8, 1.3, spacing=0.7, boundary_field=0.4)
        h = build_schwinger(params)
        scale = params.coupling**2 * params.spacing / 2.0
        for index in range(2**6):
            bits = [(index >> q) & 1 for q in range(6)]
            state = StateVector.basis_state(6, index)
            flux = reconstruct_efield(bits, params)
            mass = sum(
                params.mass / 2.0 * (-1) ** (q + 1) * (1 - 2 * bits[q])
                for q in range(6)
            )
            expected = scale * np.sum(flux**2) + mass
            assert expectation(h, state) == pytest.approx(expected, abs=1e-11)


class TestThirring:
    def test_two_site_limit(self):
        h = build_thirring(ThirringParams(2, 0.0, 0.0))
        assert len(h) == 2
        assert h.coefficient_of("XX") == pytest.approx(0.25)
        assert h.coefficient_of("YY") == pytest.approx(0.25)

    def test_alternating_bond_signs(self):
        h = build_thirring(ThirringParams(4, 0.0, 0.0))
        assert h.coefficient_of(letters_at(4, {0: "X", 1: "X"})) == pytest.approx(0.25)
        assert h.coefficient_of(letters_at(4, {1: "X", 2: "X"})) == pytest.approx(-0.25)
        assert h.coefficient_of(letters_at(4, {2: "X", 3: "X"})) == pytest.approx(0.25)

    def test_open_chain_has_n_minus_1_zz_bonds(self):
        h = build_thirring(ThirringParams(5, 0.0, 1.0))
        zz = [s for s, _ in h.items() if s.count("Z") == 2]
        assert len(zz) == 4

    def test_matches_fermionic_construction(self):
        for n in (3, 6):
            params = ThirringParams(n, 0.37, 0.81)
            spin = to_dense(build_thirring(params))
            fermi = to_dense(build_thirring_fermionic(params))
            np.testing.assert_allclose(spin, fermi, atol=1e-13)

    def test_massless_spectrum_pairs_across_charge_conjugation(self):
        # The staggered particle-hole transformation maps charge q to -q and
        # leaves the massless Hamiltonian invariant, so sector spectra pair.
        n = 6
        h = to_dense(build_thirring(ThirringParams(n, 0.0, 0.9)))
        by_charge: dict[int, list[int]] = {}
        for k in range(2**n):
            by_charge.setdefault(basis_charge(k, n), []).append(k)
        for q in (1, 2, 3):
            plus = np.linalg.eigvalsh(h[np.ix_(by_charge[q], by_charge[q])])
            minus = np.linalg.eigvalsh(h[np.ix_(by_charge[-q], by_charge[-q])])
            np.testing.assert_allclose(plus, minus, atol=1e-12)


class TestDeuteron:
    def test_two_level_terms(self):
        h = build_deuteron(2)
        assert len(h) == 4
        assert h.constant_offset == pytest.approx(5.906709)
        assert h.coefficient_of("XX") == pytest.approx(-2.143304)

    def test_ground_energy_closed_form(self):
        w = np.linalg.eigvalsh(to_dense(build_deuteron(2)))
        expected = 5.906709 - np.sqrt(6.343291**2 + 4.286608**2)
        assert w[0] == pytest.approx(expected, abs=1e-12)

    def test_three_levels_bind_deeper(self):
        e2 = np.linalg.eigvalsh(to_dense(build_deuteron(2)))[0]
        e3 = np.linalg.eigvalsh(to_dense(build_deuteron(3)))[0]
        assert e3 < e2

    def test_one_particle_sector_is_tridiagonal(self):
        h = to_dense(build_deuteron(3))
        # One-particle basis |100>, |010>, |001> = indices 1, 2, 4.
        block = h[np.ix_([1, 2, 4], [1, 2, 4])]
        assert abs(block[0, 2]) < 1e-14
        assert abs(block[0, 1]) > 1.0
        assert abs(block[1, 2]) > 1.0

    def test_unsupported_level_count(self):
        with pytest.raises(ValueError):
            DeuteronSpec(4)


class TestResourceXY:
    def test_two_site_form(self):
        h = build_resource_xy(ResourceParams(2, 0.8, 1.0, 0.3, 1.0))
        assert h.coefficient_of("XX") == pytest.approx(0.4)
        assert h.coefficient_of("YY") == pytest.approx(0.4)
        assert h.coefficient_of("ZI") == pytest.approx(0.3)
        assert h.coefficient_of("IZ") == pytest.approx(0.3)

    def test_power_law_decay(self):
        alpha = 2.5
        h = build_resource_xy(ResourceParams(3, 1.0, alpha, 0.0, 1.0))
        j12 = h.coefficient_of(letters_at(3, {0: "X", 1: "X"}))
        j13 = h.coefficient_of(letters_at(3, {0: "X", 2: "X"}))
        assert (j13 / j12).real == pytest.approx(2.0**-alpha)

    def test_conserves_total_z(self):
        h = to_dense(build_resource_xy(ResourceParams(5, 1.0, 1.5, 0.4, 1.0)))
        q = to_dense(total_z(5))
        assert commutator_norm(h, q) < 1e-13

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            ResourceParams(4, 1.0, 3.5, 0.0, 1.0)

    def test_local_z(self):
        # The oracle generator of one Z-layer angle, (delta/2) Z_j.
        g = local_z(1, 0.6, 3)
        assert g.coefficient_of("IZI") == pytest.approx(0.3)
        assert len(g) == 1


class TestObservables:
    def test_staggered_density_on_vacuum(self):
        assert expectation(staggered_density_op(6), bare_vacuum(6)) == pytest.approx(-1.0)

    def test_staggered_charge_on_vacuum(self):
        assert expectation(staggered_charge_op(6), bare_vacuum(6)) == pytest.approx(0.0)
