import gc
import tracemalloc
import weakref

import numpy as np
import pytest

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
    SchwingerParams,
    ThirringParams,
    bare_vacuum,
    build_schwinger,
    build_thirring,
    staggered_charge_op,
)
from latfield.pauli import (
    InvariantViolation,
    PauliSum,
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
        assert flat == list(range(len(plan.terms)))

    def test_greedy_splits_bonds_even_odd_plus_diagonal(self):
        h = build_schwinger(SchwingerParams(6, 0.5, 1.0))
        plan = make_plan(h, 1.0, 4)
        # Odd bonds, even bonds, and one diagonal group.
        assert len(plan.grouping) == 3

    def test_invalid_grouping_rejected(self):
        h = diagonal_hamiltonian()
        terms = h.terms
        with pytest.raises(InvariantViolation):
            EvolutionPlan(h, 1.0, 2, ((0, 1),), terms)

    def test_noncommuting_group_rejected(self):
        h = PauliSum(1, [(1.0, "X"), (1.0, "Z")])
        with pytest.raises(InvariantViolation):
            EvolutionPlan(h, 1.0, 2, ((0, 1),), h.terms)

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

    def test_reversibility(self):
        rng = np.random.default_rng(7)
        h = build_schwinger(SchwingerParams(6, 0.5, 1.0))
        s0 = StateVector(random_state(6, rng))
        forward = trotter_evolve(make_plan(h, 1.3, 40), s0)
        back = trotter_evolve(make_plan(h, -1.3, 40), forward, reverse=True)
        np.testing.assert_allclose(back.amplitudes, s0.amplitudes, atol=1e-9)

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
                    term = plan.terms[i]
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

    def test_grouping_order_is_deterministic(self):
        h = build_schwinger(SchwingerParams(6, 0.5, 1.0))
        g1 = greedy_commuting_groups(h.terms)
        g2 = greedy_commuting_groups(h.terms)
        assert g1 == g2
