import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

import latfield.pauli
from latfield.evolution import (
    EvolutionPlan,
    SpectralDecomposition,
    exact_evolve,
    greedy_commuting_groups,
    make_plan,
    trotter_error,
    trotter_evolve,
    trotter_states,
)
from latfield.models import (
    ResourceParams,
    SchwingerParams,
    ThirringParams,
    bare_vacuum,
    build_resource_xy,
    build_schwinger,
    build_thirring,
    staggered_charge_op,
)
from latfield.pauli import (
    InvariantViolation,
    PauliSum,
    ResourceLimitError,
    Sector,
    StateVector,
    expectation,
)

from oracles import apply_string, random_state


def diagonal_hamiltonian():
    return PauliSum(3, [(0.7, "ZII"), (-0.3, "IZI"), (0.4, "ZZI"), (0.2, "IZZ")])


class TestPlan:
    def test_grouping_partitions_terms(self):
        h = build_schwinger(SchwingerParams(6, 0.5, 1.0))
        plan = make_plan(h, 1.0, 4)
        flat = sorted(i for g in plan.grouping for i in g)
        assert flat == list(range(len(h.terms)))

    def test_greedy_splits_bonds_even_odd_plus_diagonal(self):
        h = build_schwinger(SchwingerParams(6, 0.5, 1.0))
        plan = make_plan(h, 1.0, 4)
        # Odd bonds, even bonds, and one diagonal group.
        assert len(plan.grouping) == 3

    def test_plan_groups_its_own_terms(self):
        h = PauliSum(1, [(1.0, "X"), (1.0, "Z")])
        assert EvolutionPlan(h, 1.0, 2).grouping == ((0,), (1,))
        # No outside grouping can be handed in.
        with pytest.raises(TypeError):
            EvolutionPlan(h, 1.0, 2, ((0, 1),))
        with pytest.raises(InvariantViolation, match="Hermitian"):
            EvolutionPlan(PauliSum(1, [(1j, "X")], hermitian=False), 1.0, 2)

    def test_bad_steps(self):
        with pytest.raises(ValueError):
            make_plan(diagonal_hamiltonian(), 1.0, 0)


class TestTrotterEvolve:
    def test_commuting_case_exact_for_any_steps(self):
        rng = np.random.default_rng(5)
        h = diagonal_hamiltonian()
        s0 = StateVector(random_state(3, rng))
        exact = exact_evolve(h, 0.9, s0)
        for steps in (1, 3):
            plan = make_plan(h, 0.9, steps)
            assert len(plan.grouping) == 1
            out = trotter_evolve(plan, s0)
            np.testing.assert_allclose(out.amplitudes, exact.amplitudes, atol=1e-12)

    def test_zero_time_identity(self):
        rng = np.random.default_rng(6)
        h = build_schwinger(SchwingerParams(4, 0.5, 1.0))
        s0 = StateVector(random_state(4, rng))
        out = trotter_evolve(make_plan(h, 0.0, 5), s0)
        np.testing.assert_allclose(out.amplitudes, s0.amplitudes, atol=1e-14)

    def test_unitarity(self):
        h = build_schwinger(SchwingerParams(6, 0.5, 1.0))
        out = trotter_evolve(make_plan(h, 2.0, 50), bare_vacuum(6))
        assert out.norm() == pytest.approx(1.0, abs=1e-10)

    def test_charge_conserved_along_trajectory(self):
        n = 6
        h = build_schwinger(SchwingerParams(n, 0.5, 1.0))
        charge = staggered_charge_op(n)
        plan = make_plan(h, 2.0, 40)
        for state in trotter_states(plan, bare_vacuum(n)):
            assert abs(expectation(charge, state)) < 1e-8

    def test_matches_per_term_product_at_8_sites(self):
        # One exponential per commuting group equals the product of the
        # group's single-term rotations, applied with an independent kernel.
        rng = np.random.default_rng(11)
        h = build_schwinger(SchwingerParams(8, 0.5, 1.0))
        plan = make_plan(h, 1.1, 5)
        s0 = StateVector(random_state(8, rng))
        dt = plan.total_time / plan.steps
        amps = s0.amplitudes
        for _ in range(plan.steps):
            for group in plan.grouping:
                for i in group:
                    term = h.terms[i]
                    theta = dt * term.coefficient
                    amps = np.cos(theta) * amps - 1j * np.sin(theta) * apply_string(
                        term.letters, amps
                    )
            amps = np.exp(-1j * dt * h.constant_offset) * amps
        out = trotter_evolve(plan, s0)
        np.testing.assert_allclose(out.amplitudes, amps, rtol=0, atol=1e-12)

    def test_convergence_toward_exact(self):
        h = build_schwinger(SchwingerParams(6, 0.5, 1.0))
        vac = bare_vacuum(6)
        coarse = trotter_error(make_plan(h, 1.0, 16), vac)
        fine = trotter_error(make_plan(h, 1.0, 64), vac)
        assert fine < coarse
        # Error ratio roughly first order in the step size.
        assert fine < coarse / 2.0


class TestExactEvolve:
    def test_z_half_turn_flips_plus_to_minus(self):
        h = PauliSum(1, [(1.0, "Z")])
        plus = StateVector(np.array([1, 1]) / np.sqrt(2))
        out = exact_evolve(h, np.pi / 2, plus)
        minus = np.array([1, -1]) / np.sqrt(2)
        overlap = abs(np.vdot(minus, out.amplitudes))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_energy_conserved(self):
        rng = np.random.default_rng(8)
        h = build_schwinger(SchwingerParams(4, 0.7, 1.0))
        s0 = StateVector(random_state(4, rng))
        before = expectation(h, s0)
        after = expectation(h, exact_evolve(h, 3.7, s0))
        assert after == pytest.approx(before, abs=1e-11)

    def test_composition(self):
        rng = np.random.default_rng(9)
        h = build_schwinger(SchwingerParams(4, 0.7, 1.0))
        s0 = StateVector(random_state(4, rng))
        one = exact_evolve(h, 0.8, exact_evolve(h, 0.6, s0))
        two = exact_evolve(h, 1.4, s0)
        np.testing.assert_allclose(one.amplitudes, two.amplitudes, atol=1e-11)

    @pytest.mark.parametrize(
        "n, turns", [(n, k) for n in (4, 6, 8) for k in (0.5, 1.0)] + [(4, 0.1), (4, 1.2)]
    )
    def test_over_the_cap_matches_product_rotation(self, monkeypatch, n, turns):
        # exp(-i t sum X_j)|0...0> is (cos t |0> - i sin t |1>)^n.  The sum
        # couples |0...0> to one Lanczos vector with beta = sqrt(n), so at
        # t = 2 pi turns / sqrt(n), turns a half-integer, the 2-vector
        # solution's last coefficient is zero while the state has moved on.
        # The vectors stay in the n + 1 symmetric states: at n = 4 beta_5 is
        # exactly 0 before the 16-state space is spanned.
        t = 2 * np.pi * turns / np.sqrt(n)
        h = PauliSum(n, [(1.0, "I" * j + "X" + "I" * (n - j - 1)) for j in range(n)])
        flips = np.bitwise_count(np.arange(2**n))
        expected = np.cos(t) ** (n - flips) * (-1j * np.sin(t)) ** flips
        monkeypatch.setattr(latfield.pauli, "DENSE_QUBIT_CAP", 0)
        out = exact_evolve(h, t, StateVector.from_bits("0" * n))
        np.testing.assert_allclose(out.amplitudes, expected, rtol=0, atol=1e-12)

    def test_krylov_keeps_a_vector_whose_norm_underflows(self, monkeypatch):
        # Entries of 1e-273 square to 0: the norm underflows, and dividing by
        # it made every amplitude NaN.  The exact answer is within 1e-272.
        h = build_thirring(ThirringParams(6, 0.5, 0.8))
        sector = Sector.of_charge(6, 0)
        monkeypatch.setattr(latfield.pauli, "DENSE_QUBIT_CAP", 0)
        tiny = StateVector(np.full(sector.dim, 1e-273, dtype=complex), sector)
        out = exact_evolve(h, 1.1, tiny).sector_amplitudes
        assert np.isfinite(out).all() and np.abs(out).max() <= 1e-272

    def test_decomposition_cache_reuse(self):
        h = build_schwinger(SchwingerParams(4, 0.7, 1.0))
        first = SpectralDecomposition.for_hamiltonian(h)
        second = SpectralDecomposition.for_hamiltonian(h)
        assert first is second

    def test_decomposition_cache_dies_with_hamiltonian(self):
        h = build_schwinger(SchwingerParams(4, 0.7, 1.0))
        entry = weakref.ref(SpectralDecomposition.for_hamiltonian(h))
        del h
        gc.collect()
        assert entry() is None

    def test_cached_decomposition_refused_above_cap(self, monkeypatch):
        h = build_schwinger(SchwingerParams(4, 0.7, 1.0))
        neutral = Sector.of_charge(4, 0)
        for sector in (None, neutral):
            SpectralDecomposition.for_hamiltonian(h, sector)
        monkeypatch.setattr(latfield.pauli, "DENSE_QUBIT_CAP", 3)
        for sector in (None, neutral):
            with pytest.raises(ResourceLimitError, match="4 qubits"):
                SpectralDecomposition.for_hamiltonian(h, sector)

    def test_xy_generator_splits_into_four_real_blocks(self):
        # The 12-site phase scan's generator: complement and reversal split
        # its charge-0 block, and each real block stays real.
        h = build_resource_xy(ResourceParams(12, 1.0, 1.5, 0.3, 1.0))
        decomp = SpectralDecomposition(h, Sector.of_charge(12, 0))
        sizes = [stop - start for start, stop, _ in decomp._blocks]
        assert len(sizes) == 4 and sum(sizes) == decomp.eigenvalues.size == 924
        assert not any(np.iscomplexobj(v) for *_, v in decomp._blocks)
        assert np.all(np.diff(decomp.eigenvalues) >= 0)

    def test_symmetry_broken_above_rounding_does_not_split(self):
        # Complement flips the sign of the 1e-12 terms and reversal keeps
        # them: only reversal may split the block, or its eigenvalues are
        # off by the dropped part.
        h = PauliSum(4, [(1e-12, "IZZZ"), (2.0, "XIIX"), (2.0, "YIIY"), (1e-12, "ZZZI")])
        sector = Sector.of_charge(4, 0)
        decomp = SpectralDecomposition(h, sector)
        assert len(decomp._blocks) == 2
        expected = np.linalg.eigvalsh(sector.matrix(h))
        np.testing.assert_allclose(decomp.eigenvalues, expected, rtol=0, atol=1e-14)

    def test_off_diagonal_symmetry_breaking_does_not_split(self):
        # Reversal swaps XXII + YYII with IIXX + IIYY, which differ by 1e-12:
        # the break sits off the diagonal, so a test that read only the
        # diagonals would also split by reversal, and drop it.
        pairs = [(2.0, "XIIX"), (2.0, "YIIY"), (1.0, "XXII"), (1.0, "YYII")]
        h = PauliSum(4, pairs + [(1 + 1e-12, "IIXX"), (1 + 1e-12, "IIYY")])
        sector = Sector.of_charge(4, 0)
        decomp = SpectralDecomposition(h, sector)
        assert len(decomp._blocks) == 2
        expected = np.linalg.eigvalsh(sector.matrix(h))
        np.testing.assert_allclose(decomp.eigenvalues, expected, rtol=0, atol=1e-14)

    def test_split_build_peak_is_set_by_the_blocks(self):
        # The 12-site XY generator's four blocks are built from their
        # representatives' rows of the compiled form, never as one 924 x 924
        # block: 16 dim^2 bytes, 13.7 MB, for a complex one.
        h = build_resource_xy(ResourceParams(12, 1.0, 1.5, 0.3, 1.0))
        sector = Sector.of_charge(12, 0)
        sector.compile(h)
        tracemalloc.start()
        try:
            decomp = SpectralDecomposition(h, sector)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        dim, sizes = sector.dim, [stop - start for start, stop, _ in decomp._blocks]
        largest, tables = max(sizes), sum(t.nbytes for t in decomp._into + decomp._out_of)
        # The kept real V_b; the largest block's representative rows and four
        # arrays its size (gathered columns, their sum, the eigh input and
        # output); the (|G|, dim) tables, with their temporaries, four times.
        bound = 8 * sum(d * d for d in sizes) + 8 * largest * (dim + 4 * largest) + 4 * tables
        assert peak <= bound < 16 * dim**2

    def test_split_eigenvectors_equal_expanded_unit_vectors(self):
        # 10-site mass-0 Thirring chain: 1024 states in four blocks, so the
        # identity is expanded in four 256-column pieces.
        decomp = SpectralDecomposition(build_thirring(ThirringParams(10, 0.0, 0.0)))
        assert len(decomp._blocks) == 4
        columns = [decomp.expand(e) for e in np.eye(1024, dtype=complex)]
        assert decomp.eigenvectors.tobytes() == np.stack(columns, 1).tobytes()

    def test_real_block_decomposition_keeps_one_complex_matrix(self):
        # 11-site Thirring chain in the full space: a real 2048 x 2048 block.
        h = build_thirring(ThirringParams(11, 0.5, 0.8))
        complex_matrix = 16 * (2**11) ** 2
        tracemalloc.start()
        try:
            decomp = SpectralDecomposition(h)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not decomp.eigenvectors.imag.any()
        assert peak / complex_matrix <= 2.1
        assert kept / complex_matrix <= 1.1


class TestSectorPlan:
    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_vacuum_trajectory_matches_full_space(self, n):
        h = build_schwinger(SchwingerParams(n, 0.5, 1.0))
        vac = bare_vacuum(n)
        sector = Sector.of_charge(n, 0)
        plan = make_plan(h, 1.0, 20)
        states = list(trotter_states(plan, vac.on(sector)))
        assert all(s.sector == sector for s in states)
        assert sector.dim == math.comb(n, n // 2)
        full = trotter_states(plan, vac)
        for a, b in zip(full, states, strict=True):
            assert a.sector == Sector(n)
            np.testing.assert_allclose(b.amplitudes, a.amplitudes, rtol=0, atol=1e-12)

    def test_plan_rejects_hamiltonian_leaking_out_of_sector(self):
        h = build_schwinger(SchwingerParams(6, 0.5, 1.0)) + PauliSum(6, [(0.1, "XIIIII")])
        vac = bare_vacuum(6)
        with pytest.raises(InvariantViolation, match="0b1 maps"):
            next(trotter_states(make_plan(h, 1.0, 4), vac.on(Sector.of_charge(6, 0))))

    def test_sweeps_reject_state_outside_sector(self):
        # A sweep takes its sector from the state, which cannot be narrowed
        # to a sector that drops one of its amplitudes.
        amps = bare_vacuum(6).amplitudes + StateVector.from_bits("000000").amplitudes
        with pytest.raises(InvariantViolation, match="outside the sector"):
            StateVector(amps / np.sqrt(2)).on(Sector.of_charge(6, 0))


class TestTrotterError:
    def test_commuting_error_zero(self):
        rng = np.random.default_rng(10)
        h = diagonal_hamiltonian()
        s0 = StateVector(random_state(3, rng))
        assert trotter_error(make_plan(h, 1.7, 3), s0) < 1e-12

    def test_monotone_and_first_order_slope(self):
        h = build_schwinger(SchwingerParams(6, 0.5, 1.0))
        vac = bare_vacuum(6)
        step_counts = [8, 16, 32, 64, 128]
        errors = [trotter_error(make_plan(h, 1.0, k), vac) for k in step_counts]
        assert all(a >= b for a, b in zip(errors, errors[1:]))
        slope = np.polyfit(np.log(step_counts), np.log(errors), 1)[0]
        assert -2.2 <= slope <= -0.8

    @pytest.mark.parametrize("sector", [None, Sector.of_charge(8, 0)], ids=["full", "charge0"])
    def test_over_the_cap_equals_dense_value(self, monkeypatch, sector):
        # Over the cap the exact side is Lanczos; the error is unchanged.
        h = build_schwinger(SchwingerParams(8, 0.5, 1.0))
        vac = bare_vacuum(8) if sector is None else bare_vacuum(8).on(sector)
        plan = make_plan(h, 1.0, 16)
        dense = trotter_error(plan, vac)
        monkeypatch.setattr(latfield.pauli, "DENSE_QUBIT_CAP", 0)
        assert abs(trotter_error(plan, vac) - dense) <= 1e-12
        assert dense > 1e-3

    def test_grouping_order_is_deterministic(self):
        h = build_schwinger(SchwingerParams(6, 0.5, 1.0))
        g1 = greedy_commuting_groups(h.terms)
        g2 = greedy_commuting_groups(h.terms)
        assert g1 == g2
