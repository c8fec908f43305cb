import numpy as np
import pytest
import scipy.linalg

from latfield.evolution import exact_evolve
from latfield.models import (
    SchwingerParams,
    ThirringParams,
    basis_charge,
    build_schwinger,
    build_thirring,
    staggered_charge_op,
)
from latfield.pauli import (
    InvariantViolation,
    PauliSum,
    Sector,
    StateVector,
    expectation,
    to_dense,
)
from latfield.structure import (
    BoundaryError,
    CorrelatorRequest,
    EmptySectorError,
    SectorSpec,
    SpectralTable,
    adiabatic_sector_state,
    charge_density,
    hadronic_tensor,
    hopping_bilinear,
    pdf_transform,
    prepare_sector_state,
    sector_indices,
    sector_matrix,
    thirring_bond_current,
    thirring_mass_sweep,
    translate,
    two_point,
)

from oracles import dense_sum


MODEL6 = ThirringParams(6, 0.5, 0.8)
MODEL8 = ThirringParams(8, 0.5, 0.8)


def spectral_two_point(h, psi, op_a, op_b, times):
    """Oracle: C(t) = sum_n e^{i(E-E_n)t} <psi|A|n><n|B|psi> from the dense
    eigenbasis, valid when psi is an eigenstate with energy E."""
    dense = to_dense(h)
    w, v = np.linalg.eigh(dense)
    energy = np.vdot(psi.amplitudes, dense @ psi.amplitudes).real
    a_amp = psi.amplitudes.conj() @ to_dense(op_a) @ v
    b_amp = v.conj().T @ to_dense(op_b) @ psi.amplitudes
    return np.array(
        [np.sum(np.exp(1j * (energy - w) * t) * a_amp * b_amp) for t in times]
    )


class TestSectorPreparation:
    def test_sector_matrix_matches_dense_block(self):
        h = build_thirring(MODEL6)
        idx = sector_indices(6, 1)
        block = sector_matrix(h, idx)
        expected = dense_sum(h)[np.ix_(idx, idx)]
        np.testing.assert_allclose(block, expected, atol=1e-13)

    def test_sector_indices_match_scalar_charge(self):
        for n in range(1, 11):
            charges = np.array([basis_charge(k, n) for k in range(2**n)])
            for charge in range(charges.min() - 1, charges.max() + 2):
                np.testing.assert_array_equal(
                    sector_indices(n, charge), np.flatnonzero(charges == charge)
                )

    def test_z_values_built_once_and_read_only(self):
        sector = Sector.of_charge(6, 0)
        z = sector.z_values
        assert sector.z_values is z
        assert not z.flags.writeable
        for row, k in zip(z, sector.indices):
            np.testing.assert_array_equal(row, [1 - 2 * (k >> j & 1) for j in range(6)])

    def test_sector_matrix_rejects_leaking_operator(self):
        with pytest.raises(InvariantViolation, match="0b1"):
            sector_matrix(PauliSum(4, [(1.0, "XIII")]), sector_indices(4, 0))

    def test_neutral_ground_state_energy(self):
        h = build_thirring(MODEL6)
        state = prepare_sector_state(h, SectorSpec(total_charge=0))
        idx = sector_indices(6, 0)
        w = np.linalg.eigvalsh(dense_sum(h)[np.ix_(idx, idx)])
        assert expectation(h, state) == pytest.approx(w[0], abs=1e-11)

    def test_prepared_states_are_numerically_exact_eigenstates(self):
        h = build_thirring(MODEL6)
        for charge, rank in [(0, 0), (0, 2), (1, 0), (-2, 1)]:
            state = prepare_sector_state(h, SectorSpec(charge, energy_rank=rank))
            hs = h.apply_to(state)
            energy = state.inner(hs).real
            variance = hs.inner(hs).real - energy**2
            assert variance < 1e-18
            assert expectation(staggered_charge_op(6), state) == pytest.approx(
                charge, abs=1e-10
            )

    @pytest.mark.parametrize(
        "h, complex_block",
        [
            (build_schwinger(SchwingerParams(6, 0.5, 1.0)), False),
            (build_thirring(MODEL6) + 0.3 * thirring_bond_current(6, 2), True),
        ],
        ids=["real-schwinger", "complex-thirring-current"],
    )
    def test_state_matches_dense_eigenvector_up_to_phase(self, h, complex_block):
        idx = sector_indices(6, 0)
        block = dense_sum(h)[np.ix_(idx, idx)]
        assert block.imag.any() == complex_block
        w, v = np.linalg.eigh(block)
        assert w[1] - w[0] > 1e-3  # the ground level is nondegenerate
        state = prepare_sector_state(h, SectorSpec(total_charge=0))
        assert abs(np.vdot(v[:, 0], state.amplitudes[idx])) >= 1 - 1e-12

    def test_charged_state_orthogonal_to_neutral_sector(self):
        h = build_thirring(MODEL8)
        charged = prepare_sector_state(h, SectorSpec(total_charge=1))
        for rank in range(3):
            neutral = prepare_sector_state(h, SectorSpec(0, energy_rank=rank))
            assert abs(charged.inner(neutral)) < 1e-12

    def test_empty_sector_raises(self):
        h = build_thirring(ThirringParams(4, 0.5, 0.8))
        with pytest.raises(EmptySectorError):
            prepare_sector_state(h, SectorSpec(total_charge=5))

    def test_rank_beyond_sector_raises(self):
        h = build_thirring(ThirringParams(4, 0.5, 0.8))
        with pytest.raises(EmptySectorError):
            prepare_sector_state(h, SectorSpec(total_charge=2, energy_rank=50))


class TestAdiabaticCrossCheck:
    def test_tracks_sector_ground_states(self):
        params = ThirringParams(6, 0.5, 0.8)
        path = thirring_mass_sweep(params)
        for charge, floor in [(0, 0.99), (1, 0.95)]:
            swept = adiabatic_sector_state(path, SectorSpec(charge))
            exact = prepare_sector_state(path(1.0), SectorSpec(charge))
            assert abs(swept.inner(exact)) >= floor

    def test_fidelity_improves_with_slower_sweep(self):
        params = ThirringParams(6, 0.5, 0.8)
        path = thirring_mass_sweep(params)
        exact = prepare_sector_state(path(1.0), SectorSpec(1))
        fast = adiabatic_sector_state(path, SectorSpec(1), total_time=15.0, steps=60)
        slow = adiabatic_sector_state(path, SectorSpec(1), total_time=120.0, steps=480)
        assert abs(slow.inner(exact)) > abs(fast.inner(exact))

    def test_excited_ranks_rejected(self):
        params = ThirringParams(4, 0.5, 0.8)
        with pytest.raises(ValueError):
            adiabatic_sector_state(thirring_mass_sweep(params), SectorSpec(0, energy_rank=1))


class TestTranslate:
    def test_shifts_support(self):
        op = hopping_bilinear(6, 0)
        moved = translate(op, 3)
        assert moved.coefficient_of("IIIXXI") == pytest.approx(0.25)

    def test_off_lattice_raises(self):
        with pytest.raises(BoundaryError):
            translate(hopping_bilinear(6, 0), 5)
        with pytest.raises(BoundaryError):
            translate(hopping_bilinear(6, 0), -1)


class TestTwoPoint:
    def test_equal_time_number_correlator_on_basis_state(self):
        from latfield.fermions import jw_number

        h = build_thirring(ThirringParams(4, 0.5, 0.8))
        psi = StateVector.from_bits("0110")
        req = CorrelatorRequest(
            op_a=jw_number(0, 4), op_b=jw_number(1, 4), times=(0.0,), positions=(1,)
        )
        table = two_point(h, psi, req)
        # A_1 = n_1 translated from n_0; both sites occupied in |0110>.
        assert table[0, 0] == pytest.approx(1.0)

    def test_matches_spectral_oracle_on_eigenstate(self):
        h = build_thirring(MODEL6)
        psi = prepare_sector_state(h, SectorSpec(0, energy_rank=1))
        times = tuple(np.linspace(0.0, 3.0, 7))
        req = CorrelatorRequest(
            op_a=hopping_bilinear(6, 0),
            op_b=charge_density(6, 0),
            times=times,
            positions=(0,),
        )
        table = two_point(h, psi, req)
        oracle = spectral_two_point(
            h, psi, req.op_a, req.op_b, times
        )
        np.testing.assert_allclose(table[0], oracle, atol=1e-8)

    def test_sector_and_full_space_paths_match_dense_oracle(self):
        # The hopping bilinear keeps the charge, so the correlator runs in
        # psi's charge sector; X on site 0 changes it, so it runs in the
        # full space.
        h = build_thirring(MODEL6)
        psi = prepare_sector_state(h, SectorSpec(1))
        times = tuple(np.linspace(0.0, 2.0, 5))
        flip = PauliSum(6, [(1.0, "XIIIII")])
        sector = Sector.of_state(psi)
        assert sector.dim == 15 and sector.closed_under(h)
        assert sector.closed_under(hopping_bilinear(6, 0)) and not sector.closed_under(flip)
        for op, positions in [(hopping_bilinear(6, 0), (0, 2)), (flip, (0, 2, 4))]:
            req = CorrelatorRequest(op_a=op, op_b=op, times=times, positions=positions)
            table = two_point(h, psi, req)
            hd, b = dense_sum(h), dense_sum(op)
            for row, y in enumerate(positions):
                a = dense_sum(translate(op, y))
                for col, t in enumerate(times):
                    u = scipy.linalg.expm(-1j * t * hd)
                    bra, ket = u @ psi.amplitudes, u @ (b @ psi.amplitudes)
                    assert abs(table[row, col] - np.vdot(bra, a @ ket)) <= 1e-12

    def test_trotter_path_close_to_exact_path(self):
        h = build_thirring(MODEL6)
        psi = prepare_sector_state(h, SectorSpec(0))
        times = tuple(np.linspace(0.0, 2.0, 5))
        req = CorrelatorRequest(
            op_a=charge_density(6, 0),
            op_b=charge_density(6, 0),
            times=times,
            positions=(0, 1, 2),
        )
        exact = two_point(h, psi, req)
        trotter = two_point(h, psi, req, cap=0, trotter_steps_per_unit=128)
        np.testing.assert_allclose(trotter, exact, atol=1e-3)

    def test_time_offset_leaves_correlator_invariant_on_eigenstates(self):
        h = build_thirring(MODEL6)
        psi = prepare_sector_state(h, SectorSpec(0))
        shifted = exact_evolve(h, 0.7, psi)
        req = CorrelatorRequest(
            op_a=hopping_bilinear(6, 1),
            op_b=hopping_bilinear(6, 1),
            times=tuple(np.linspace(0.0, 2.0, 5)),
            positions=(0, 1),
        )
        base = two_point(h, psi, req)
        offset = two_point(h, shifted, req)
        np.testing.assert_allclose(np.abs(offset), np.abs(base), atol=1e-9)

    def test_nonuniform_grid_rejected(self):
        with pytest.raises(ValueError):
            CorrelatorRequest(
                op_a=hopping_bilinear(4, 0),
                op_b=hopping_bilinear(4, 0),
                times=(0.0, 0.1, 0.5),
                positions=(0,),
            )


class TestPdfTransform:
    def test_constant_concentrates_at_zero(self):
        ys = np.arange(8, dtype=float)
        table = pdf_transform(np.ones(8), ys, p_plus=2.0)
        peak = np.argmax(np.abs(table.values))
        assert table.grid[peak] == pytest.approx(0.0)
        others = np.delete(np.abs(table.values), peak)
        assert np.all(others < 1e-12)

    def test_oscillation_peaks_at_shifted_bin(self):
        m, dy, p_plus = 16, 1.0, 1.5
        ys = np.arange(m) * dy
        k = 3
        wave = np.exp(1j * 2 * np.pi * k / (m * dy) * ys)
        table = pdf_transform(wave, ys, p_plus)
        peak = table.grid[np.argmax(np.abs(table.values))]
        assert peak == pytest.approx(2 * np.pi * k / (m * dy * p_plus))

    def test_parseval_identity(self):
        rng = np.random.default_rng(12)
        ys = np.arange(10) * 0.5
        values = rng.normal(size=10) + 1j * rng.normal(size=10)
        table = pdf_transform(values, ys, p_plus=1.3)
        dx = table.grid[1] - table.grid[0]
        lhs = np.sum(np.abs(table.values) ** 2) * dx
        rhs = np.sum(np.abs(values) ** 2) * 0.5
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_linearity(self):
        rng = np.random.default_rng(13)
        ys = np.arange(6, dtype=float)
        a = rng.normal(size=6) + 1j * rng.normal(size=6)
        b = rng.normal(size=6) + 1j * rng.normal(size=6)
        fa = pdf_transform(a, ys, 1.0).values
        fb = pdf_transform(b, ys, 1.0).values
        fab = pdf_transform(a + 2 * b, ys, 1.0).values
        np.testing.assert_allclose(fab, fa + 2 * fb, atol=1e-12)

    def test_nonuniform_grid_rejected(self):
        with pytest.raises(ValueError):
            pdf_transform(np.ones(3), [0.0, 1.0, 3.0], 1.0)


class TestHadronicTensor:
    def test_identity_current_gives_delta_at_origin(self):
        h = build_thirring(ThirringParams(4, 0.5, 0.8))
        psi = prepare_sector_state(h, SectorSpec(0))
        ny, nt = 4, 8
        dy, dt = 1.0, 0.5
        positions = list(range(ny))
        times = list((np.arange(nt) - nt // 2) * dt)

        def identity_current(_site: int) -> PauliSum:
            return PauliSum(4, [], constant_offset=1.0)

        omegas = 2 * np.pi * np.arange(nt // 2) / (nt * dt)
        ks = 2 * np.pi * np.arange(ny) / (ny * dy)
        q_grid = [(w, k) for w in omegas for k in ks]
        table = hadronic_tensor(h, psi, identity_current, q_grid, positions, times)
        values = np.abs(np.asarray(table.values))
        assert values[0] == pytest.approx(ny * nt * dy * dt)
        assert np.all(values[1:] < 1e-9)

    def test_matches_spectral_oracle(self):
        h = build_thirring(MODEL6)
        psi = prepare_sector_state(h, SectorSpec(0))
        positions = list(range(6))
        times = list(np.linspace(-3.0, 3.0, 13))
        q_grid = [(0.8, 0.5), (1.6, 1.0), (2.4, 2.0)]
        table = hadronic_tensor(
            h, psi, lambda y: charge_density(6, y), q_grid, positions, times
        )
        # Oracle: rebuild the time-ordered correlator from the eigenbasis.
        dense = to_dense(h)
        w, v = np.linalg.eigh(dense)
        energy = np.vdot(psi.amplitudes, dense @ psi.amplitudes).real
        corr = np.empty((len(positions), len(times)), dtype=complex)
        for row, y in enumerate(positions):
            jy = to_dense(charge_density(6, y))
            j0 = to_dense(charge_density(6, 0))
            a_amp = psi.amplitudes.conj() @ jy @ v
            b_amp = v.conj().T @ j0 @ psi.amplitudes
            a_amp_rev = psi.amplitudes.conj() @ j0 @ v
            b_amp_rev = v.conj().T @ jy @ psi.amplitudes
            for col, t in enumerate(times):
                if t >= 0:
                    corr[row, col] = np.sum(np.exp(1j * (energy - w) * t) * a_amp * b_amp)
                else:
                    corr[row, col] = np.sum(np.exp(-1j * (energy - w) * t) * a_amp_rev * b_amp_rev)
        dt = times[1] - times[0]
        for row, (omega, k) in enumerate(q_grid):
            phases = np.exp(
                1j * (omega * np.asarray(times)[None, :] - k * np.asarray(positions, dtype=float)[:, None])
            )
            expected = (dt * 1.0 * np.sum(phases * corr)).real
            assert table.values[row].real == pytest.approx(expected, abs=1e-6)

    def test_free_limit_peak_matches_single_particle_gap(self):
        # g = 0: quadratic staggered fermions.  The dominant inelastic peak
        # of the charge-density response sits at a particle-hole energy of
        # the single-particle hopping matrix.
        n, m = 8, 0.5
        params = ThirringParams(n, m, 0.0)
        h = build_thirring(params)
        psi = prepare_sector_state(h, SectorSpec(0))
        # Single-particle oracle: hopping (-1)^(j+1)/2 on bonds, staggered
        # potential m(-1)^(j+1) minus the spin-form constant shift.
        sp = np.zeros((n, n))
        for b in range(1, n):
            sp[b - 1, b] = sp[b, b - 1] = (-1) ** (b + 1) / 2.0
        for j in range(1, n + 1):
            sp[j - 1, j - 1] = m * (-1) ** (j + 1)
        eps = np.linalg.eigvalsh(sp)
        occupied, empty = eps[: n // 2], eps[n // 2 :]
        ph_energies = np.array([p - q for p in empty for q in occupied])
        t_max, nt = 16.0, 128
        times = list(np.linspace(-t_max, t_max, nt))
        dt = times[1] - times[0]
        omegas = 2 * np.pi * np.arange(1, nt // 2) / (nt * dt)
        q_grid = [(w, np.pi / 2) for w in omegas]
        table = hadronic_tensor(
            h, psi, lambda y: charge_density(n, y), q_grid, list(range(n)), times
        )
        peak_omega = omegas[int(np.argmax(np.abs(table.values.real)))]
        gap_to_ph = np.min(np.abs(ph_energies - peak_omega))
        assert gap_to_ph < 2 * np.pi / t_max  # within the frequency resolution


class TestContinuity:
    def test_bond_current_satisfies_lattice_continuity(self):
        n = 6
        h = to_dense(build_thirring(ThirringParams(n, 0.4, 0.9)))
        currents = [to_dense(thirring_bond_current(n, b)) for b in range(n - 1)]
        for site in range(n):
            q = to_dense(charge_density(n, site))
            dq = 1j * (h @ q - q @ h)
            left = currents[site - 1] if site > 0 else 0.0
            right = currents[site] if site < n - 1 else 0.0
            np.testing.assert_allclose(dq, left - right, atol=1e-12)


class TestSpectralTable:
    def test_monotone_grid_enforced(self):
        with pytest.raises(ValueError):
            SpectralTable(grid=[0.0, 2.0, 1.0], values=[1, 2, 3])
