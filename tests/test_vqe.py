import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from latfield.evolution import SpectralDecomposition, exact_evolve
from latfield.models import (
    ResourceParams,
    SchwingerParams,
    bare_vacuum,
    build_deuteron,
    build_resource_xy,
    build_schwinger,
    total_z,
)
from latfield.pauli import PauliSum, StateVector, expectation, to_dense
from latfield.vqe import (
    energy_and_gradient,
    energy_and_variance,
    hva_schwinger_ansatz,
    minimize,
    optimize,
    order_parameter,
    phase_scan,
    steepest_change,
    ucc_deuteron_ansatz,
)

from oracles import (
    dense_exponential_product,
    dense_sum,
    fock_annihilation,
    fock_creation,
    jw_number,
    local_z,
)


RESOURCE4 = ResourceParams(n_sites=4, j0=1.0, alpha=1.5, b_field=0.3, delta=1.0)


class TestUccAnsatz:
    def test_zero_angle_is_reference_state(self):
        ansatz = ucc_deuteron_ansatz(2)
        state = ansatz.prepare([0.0])
        np.testing.assert_allclose(
            state.amplitudes, StateVector.from_bits("10").amplitudes, atol=1e-15
        )
        h2 = build_deuteron(2)
        energy, variance = energy_and_variance(h2, ansatz, [0.0])
        assert energy == pytest.approx(-0.436582, abs=1e-12)

    def test_matches_fock_space_exponential(self):
        # exp(theta (a0^dag a1 - a1^dag a0)) acting on |10>.
        ansatz = ucc_deuteron_ansatz(2)
        for theta in (-0.9, 0.3, 1.7):
            gen = fock_creation(0, 2) @ fock_annihilation(1, 2)
            gen = gen - gen.conj().T
            expected = scipy.linalg.expm(theta * gen) @ StateVector.from_bits("10").amplitudes
            got = ansatz.prepare([theta]).amplitudes
            np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_three_level_matches_fock_composition(self):
        # U01(theta) U02(eta) |100>, parameters ordered (eta, theta).
        ansatz = ucc_deuteron_ansatz(3)
        eta, theta = 0.41, -0.73
        g01 = fock_creation(0, 3) @ fock_annihilation(1, 3)
        g01 = g01 - g01.conj().T
        g02 = fock_creation(0, 3) @ fock_annihilation(2, 3)
        g02 = g02 - g02.conj().T
        expected = (
            scipy.linalg.expm(theta * g01)
            @ scipy.linalg.expm(eta * g02)
            @ StateVector.from_bits("100").amplitudes
        )
        np.testing.assert_allclose(ansatz.prepare([eta, theta]).amplitudes, expected, atol=1e-12)

    def test_unitarity(self):
        ansatz = ucc_deuteron_ansatz(3)
        for theta in np.linspace(-2, 2, 7):
            assert ansatz.prepare([theta, -theta]).norm() == pytest.approx(1.0, abs=1e-12)

    def test_particle_number_conserved(self):
        ansatz = ucc_deuteron_ansatz(2)
        number = jw_number(0, 2) + jw_number(1, 2)
        for theta in np.linspace(-np.pi, np.pi, 32):
            state = ansatz.prepare([theta])
            assert expectation(number, state) == pytest.approx(1.0, abs=1e-12)

    def test_bad_level_count(self):
        with pytest.raises(ValueError):
            ucc_deuteron_ansatz(4)


class TestHvaAnsatz:
    def test_zero_parameters_give_vacuum(self):
        ansatz = hva_schwinger_ansatz(RESOURCE4, 3)
        state = ansatz.prepare(np.zeros(ansatz.parameter_count))
        np.testing.assert_allclose(
            state.amplitudes, bare_vacuum(4).amplitudes, atol=1e-14
        )

    def test_parameter_count(self):
        assert hva_schwinger_ansatz(RESOURCE4, 1).parameter_count == 1
        assert hva_schwinger_ansatz(RESOURCE4, 2).parameter_count == 1 + 4
        assert hva_schwinger_ansatz(RESOURCE4, 5).parameter_count == 3 + 2 * 4

    def test_charge_sector_preserved(self):
        rng = np.random.default_rng(3)
        ansatz = hva_schwinger_ansatz(RESOURCE4, 4)
        q = total_z(4)
        for _ in range(5):
            state = ansatz.prepare(rng.uniform(-1.5, 1.5, ansatz.parameter_count))
            assert expectation(q, state) == pytest.approx(0.0, abs=1e-10)

    def test_prepared_states_normalized(self):
        rng = np.random.default_rng(13)
        ansatz = hva_schwinger_ansatz(RESOURCE4, 5)
        for _ in range(5):
            state = ansatz.prepare(rng.uniform(-3, 3, ansatz.parameter_count))
            assert state.norm() == pytest.approx(1.0, abs=1e-10)

    def test_single_layer_equals_exact_resource_evolution(self):
        ansatz = hva_schwinger_ansatz(RESOURCE4, 1)
        theta = 0.37
        got = ansatz.prepare([theta])
        expected = exact_evolve(build_resource_xy(RESOURCE4), theta, bare_vacuum(4))
        np.testing.assert_allclose(got.amplitudes, expected.amplitudes, atol=1e-12)

    @pytest.mark.parametrize("n_sites", [4, 6])
    def test_sector_ansatz_matches_dense_oracle(self, n_sites):
        resource = ResourceParams(n_sites, 1.0, 1.5, 0.3, 1.0)
        ansatz = hva_schwinger_ansatz(resource, 4)
        assert ansatz.sector is ansatz.initial_state.sector
        assert ansatz.sector.dim == scipy.special.comb(n_sites, n_sites // 2, exact=True)
        h = build_schwinger(SchwingerParams(n_sites, 0.4, 1.3, spacing=0.5))
        hd = dense_sum(h)
        xy = build_resource_xy(resource)
        z_layer = [local_z(j, resource.delta, n_sites) for j in range(n_sites)]
        rng = np.random.default_rng(n_sites)
        for _ in range(3):
            values = rng.uniform(-2.0, 2.0, ansatz.parameter_count)
            # Layers XY, Z, XY, Z: one angle per XY layer, one per qubit per Z layer.
            generators = [xy, *z_layer, xy, *z_layer]
            angles = [values[0], *values[1 : n_sites + 1], values[n_sites + 1], *values[n_sites + 2 :]]
            expected = dense_exponential_product(generators, angles, bare_vacuum(n_sites).amplitudes)
            got = ansatz.prepare(values).amplitudes
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
            energy = np.vdot(expected, hd @ expected).real
            variance = np.linalg.norm(hd @ expected) ** 2 - energy**2
            got_energy, got_variance = energy_and_variance(h, ansatz, values)
            assert abs(got_energy - energy) <= 1e-12
            assert abs(got_variance - variance) <= 1e-12

    def test_layer_count_validation(self):
        with pytest.raises(ValueError):
            hva_schwinger_ansatz(RESOURCE4, 0)


class TestEnergyAndVariance:
    def test_exact_eigenstates_have_tiny_variance(self):
        h = build_deuteron(3)
        dense = to_dense(h)
        _, vectors = np.linalg.eigh(dense)
        for col in range(dense.shape[0]):
            state = StateVector(vectors[:, col].astype(complex))
            hs = h.apply_to(state)
            energy = state.inner(hs).real
            variance = hs.inner(hs).real - energy**2
            assert variance < 1e-9

    def test_equal_mix_gives_quarter_gap_squared(self):
        h = build_deuteron(2)
        w, v = np.linalg.eigh(to_dense(h))
        mix = StateVector(((v[:, 0] + v[:, 2]) / np.sqrt(2)).astype(complex))
        hs = h.apply_to(mix)
        energy = mix.inner(hs).real
        variance = hs.inner(hs).real - energy**2
        assert variance == pytest.approx((w[2] - w[0]) ** 2 / 4.0, rel=1e-10)

    def test_basis_eigenstate_of_diagonal_sum(self):
        h = PauliSum(2, [(0.4, "ZI"), (-1.1, "IZ"), (0.2, "ZZ")], constant_offset=3.0)
        ansatz = ucc_deuteron_ansatz(2)
        energy, variance = energy_and_variance(h, ansatz, [0.0])
        assert variance == pytest.approx(0.0, abs=1e-12)

    def test_variance_floor(self):
        rng = np.random.default_rng(4)
        h = build_deuteron(2)
        ansatz = ucc_deuteron_ansatz(2)
        for _ in range(10):
            _, variance = energy_and_variance(h, ansatz, rng.uniform(-2, 2, 1))
            assert variance >= -1e-10


@st.composite
def ansatz_points(draw):
    """A Hamiltonian, an ansatz for it and a random parameter point: the HVA
    sector ansatz at 4-8 sites with 2-6 layers, or a UCC deuteron ansatz
    (commuting generators)."""
    kind = draw(st.sampled_from(["hva", "ucc"]))
    if kind == "hva":
        n = draw(st.sampled_from([4, 6, 8]))
        ansatz = hva_schwinger_ansatz(
            ResourceParams(n, 1.0, 1.5, 0.3, 1.0), draw(st.integers(2, 6))
        )
        h = build_schwinger(SchwingerParams(n, draw(st.floats(-1.5, 1.5)), 2.0, spacing=0.5))
    else:
        levels = draw(st.sampled_from([2, 3]))
        ansatz, h = ucc_deuteron_ansatz(levels), build_deuteron(levels)
    angles = st.floats(-np.pi, np.pi, allow_nan=False)
    count = ansatz.parameter_count
    values = draw(st.lists(angles, min_size=count, max_size=count))
    return h, ansatz, np.array(values)


class TestGradient:
    @settings(max_examples=40, deadline=None)
    @given(case=ansatz_points())
    def test_adjoint_gradient_matches_central_differences(self, case):
        h, ansatz, values = case
        energy, variance, gradient = energy_and_gradient(h, ansatz, values)
        plain_energy, plain_variance = energy_and_variance(h, ansatz, values)
        assert abs(energy - plain_energy) <= 1e-12
        assert abs(variance - plain_variance) <= 1e-12
        step = 1e-6
        for k in range(values.size):
            shift = np.zeros(values.size)
            shift[k] = step
            upper = energy_and_variance(h, ansatz, values + shift)[0]
            lower = energy_and_variance(h, ansatz, values - shift)[0]
            assert abs(gradient[k] - (upper - lower) / (2 * step)) <= 1e-7, k

    def test_gradient_vanishes_exactly_at_the_zero_point(self):
        # The bare vacuum and every real layer at angle zero keep the state
        # and H|psi> real, so every derivative's imaginary part is exactly 0.
        for n, layers in ((4, 3), (6, 4), (8, 6)):
            ansatz = hva_schwinger_ansatz(ResourceParams(n, 1.0, 1.5, 0.3, 1.0), layers)
            h = build_schwinger(SchwingerParams(n, -0.5, 2.0, spacing=0.5))
            _, _, gradient = energy_and_gradient(h, ansatz, np.zeros(ansatz.parameter_count))
            assert gradient.shape == (ansatz.parameter_count,)
            assert not gradient.any()


def count_passes(monkeypatch):
    """Counts of ``coordinates`` and ``expand`` calls, each one product of
    every eigenvector block with a vector."""
    calls = {"coordinates": 0, "expand": 0}
    for name in calls:
        method = getattr(SpectralDecomposition, name)

        def counted(self, x, _method=method, _name=name):
            calls[_name] += 1
            return _method(self, x)

        monkeypatch.setattr(SpectralDecomposition, name, counted)
    return calls


class TestEvaluationCost:
    def test_eigenbasis_passes_per_evaluation(self, monkeypatch):
        # 12 sites, 4 layers: two XY layers.  The initial state's coordinates
        # are computed once per ansatz, so an evaluation pays 3 + 3 passes
        # with the gradient and 1 + 2 without.
        ansatz = hva_schwinger_ansatz(ResourceParams(12, 1.0, 1.5, 0.3, 1.0), 4)
        h = build_schwinger(SchwingerParams(12, -0.7, 2.0, spacing=0.5))
        point = np.random.default_rng(3).uniform(-1, 1, ansatz.parameter_count)
        energy_and_gradient(h, ansatz, point)
        calls = count_passes(monkeypatch)
        for gradient, expected in ((True, (3, 3)), (False, (1, 2))):
            calls.update(coordinates=0, expand=0)
            energy_and_gradient(h, ansatz, point, gradient)
            assert (calls["coordinates"], calls["expand"]) == expected

    def test_rebuilt_eigenbasis_recomputes_the_start(self, monkeypatch):
        # The kept coordinates belong to one decomposition: once the cache
        # hands out a new one, they are computed again, and nothing moves.
        ansatz = hva_schwinger_ansatz(RESOURCE4, 4)
        h = build_schwinger(SchwingerParams(4, -0.3, 1.0))
        point = np.random.default_rng(4).uniform(-1, 1, ansatz.parameter_count)
        first = energy_and_gradient(h, ansatz, point)
        monkeypatch.setattr(SpectralDecomposition, "_cache", weakref.WeakKeyDictionary())
        calls = count_passes(monkeypatch)
        again = energy_and_gradient(h, ansatz, point)
        assert calls == {"coordinates": 4, "expand": 3}
        assert first[:2] == again[:2] and first[2].tobytes() == again[2].tobytes()


class TestOptimize:
    def test_synthetic_quadratic(self):
        outcome = minimize(
            lambda x, gradient: ((x[0] - 0.3) ** 2, 2.0 * (x - 0.3)), [0.0], budget=200, seed=0
        )
        assert outcome.point[0] == pytest.approx(0.3, abs=1e-6)
        assert outcome.converged

    def test_deuteron_two_levels_to_1e6(self):
        h = build_deuteron(2)
        ansatz = ucc_deuteron_ansatz(2)
        result = optimize(h, ansatz, [0.0], budget=500, seed=1)
        exact = np.linalg.eigvalsh(to_dense(h))[0]
        assert abs(result.energy - exact) < 1e-6

    def test_deuteron_three_levels_to_1e4(self):
        h = build_deuteron(3)
        ansatz = ucc_deuteron_ansatz(3)
        result = optimize(h, ansatz, [0.0, 0.0], budget=500, seed=1)
        exact = np.linalg.eigvalsh(to_dense(h))[0]
        assert abs(result.energy - exact) < 1e-4

    def test_never_worse_than_initial(self):
        h = build_deuteron(2)
        ansatz = ucc_deuteron_ansatz(2)
        initial = [1.3]
        e0, _ = energy_and_variance(h, ansatz, initial)
        result = optimize(h, ansatz, initial, budget=40, seed=2)
        assert result.energy <= e0

    def test_deterministic_for_fixed_seed(self):
        h = build_deuteron(2)
        ansatz = ucc_deuteron_ansatz(2)
        a = optimize(h, ansatz, [0.2], budget=120, seed=7, starts=3)
        b = optimize(h, ansatz, [0.2], budget=120, seed=7, starts=3)
        assert a.energy == b.energy
        assert a.best_params == b.best_params
        assert a.trace == b.trace

    def test_budget_respected_and_flagged(self):
        h = build_deuteron(2)
        ansatz = ucc_deuteron_ansatz(2)
        result = optimize(h, ansatz, [0.9], budget=5, seed=0)
        assert result.evaluations <= 5
        assert not result.converged
        assert result.stop_reason == "budget"

    def test_budget_precondition(self):
        with pytest.raises(ValueError):
            optimize(build_deuteron(2), ucc_deuteron_ansatz(2), [0.0], budget=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameters_rejected(self, bad):
        ansatz = ucc_deuteron_ansatz(2)
        with pytest.raises(ValueError, match="finite"):
            ansatz.prepare([bad])
        with pytest.raises(ValueError, match="finite"):
            optimize(build_deuteron(2), ansatz, [bad], budget=10)

    def test_self_verification_bound(self):
        # variance < tol implies the energy sits within sqrt(variance) of an
        # exact eigenvalue.
        h = build_deuteron(2)
        ansatz = ucc_deuteron_ansatz(2)
        result = optimize(h, ansatz, [0.0], budget=300, seed=3)
        eigenvalues = np.linalg.eigvalsh(to_dense(h))
        distance = np.min(np.abs(eigenvalues - result.energy))
        assert distance <= np.sqrt(max(result.variance, 0.0)) + 1e-9


class TestPhaseScan:
    def test_small_scan_tracks_dense_and_flips_sign(self):
        template = SchwingerParams(4, 0.0, 2.0, spacing=0.5)
        resource = ResourceParams(4, 1.0, 1.5, 0.3, 1.0)
        masses = [-2.0, -0.7, 2.0]
        records = phase_scan(
            masses, template, resource, n_layers=6, budget=900, seed=0
        )
        assert [r.mass for r in records] == masses
        for record in records:
            assert record.dense_order_parameter is not None
            assert abs(record.order_parameter - record.dense_order_parameter) < 0.1
        # Deep positive mass pins the bare vacuum, deep negative the flipped one.
        assert records[-1].order_parameter < -0.8
        assert records[0].order_parameter > 0.4

    def test_scan_leaves_the_vacuum_after_a_cold_start_that_stays(self):
        # With seed 6 the first cold start's descent stays above the bare
        # vacuum's energy, so it returns the all-zero point, whose gradient
        # is exactly zero: the next point has to start cold as well.
        template = SchwingerParams(12, 0.0, 2.0, spacing=0.5)
        resource = ResourceParams(12, 1.0, 1.5, 0.3, 1.0)
        masses = [-0.7604, -0.6604, -0.5604]
        records = phase_scan(masses, template, resource, n_layers=4, budget=60, seed=6)
        for record in records:
            h = build_schwinger(replace(template, mass=record.mass))
            assert record.energy < expectation(h, bare_vacuum(12)) - 1.0
            assert record.order_parameter > -0.9

    def test_masses_must_be_sorted(self):
        template = SchwingerParams(4, 0.0, 1.0)
        with pytest.raises(ValueError):
            phase_scan([0.5, -0.5], template, RESOURCE4, 2, 50)

    @pytest.mark.parametrize("n_sites", [6, 12])
    def test_zero_point_order_parameter_is_exactly_the_vacuum_value(self, n_sites):
        # Without the normalization the 12-site value reads
        # -1.0000000000000009 with one BLAS thread, outside [-1, 1].
        ansatz = hva_schwinger_ansatz(ResourceParams(n_sites, 1.0, 1.5, 0.3, 1.0), 4)
        value = order_parameter(ansatz, np.zeros(ansatz.parameter_count))
        assert -1.0 <= value <= 1.0
        assert abs(value + 1.0) <= 1e-15

    def test_steepest_change_helper(self):
        # Central differences at interior grid points.
        masses = [0.0, 1.0, 2.0, 3.0]
        order = [0.0, 0.1, 0.9, 0.95]
        assert steepest_change(masses, order) == pytest.approx(1.0)
        # Two points fall back to the interval midpoint.
        assert steepest_change([0.0, 1.0], [0.0, 0.5]) == pytest.approx(0.5)
