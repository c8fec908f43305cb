import numpy as np
import pytest

import latfield.pauli
from latfield.fermions import jw_creation
from latfield.models import ThirringParams, build_thirring, staggered_density_op, total_z
from latfield.pauli import InvariantViolation, PauliSum, ResourceLimitError
from latfield.thermal import (
    PureStateEnsemble,
    ThermalState,
    bloch_propagate,
    decompose,
    dump_gibbs,
    ensemble_observable,
    load_gibbs,
)

from oracles import dense_sum, superposition_ensemble_value


H0 = build_thirring(ThirringParams(4, 0.6, 0.9))


def dense_quench_value(h0, h1, observable, beta, t):
    """Oracle: Tr(O e^{iH1 t} rho e^{-iH1 t}) / Tr rho with rho = e^{-beta H0},
    everything built from the element-wise dense constructions."""
    w0, v0 = np.linalg.eigh(dense_sum(h0))
    rho = (v0 * np.exp(-beta * w0)) @ v0.conj().T
    w1, v1 = np.linalg.eigh(dense_sum(h1))
    u = (v1 * np.exp(1j * w1 * t)) @ v1.conj().T
    obs = dense_sum(observable)
    return np.trace(obs @ u @ rho @ u.conj().T).real / np.trace(rho).real


class TestBlochPropagate:
    def test_zero_beta_is_identity(self):
        ts = bloch_propagate(H0, 0.0)
        np.testing.assert_allclose(ts.rho, np.eye(16), atol=1e-14)
        assert ts.trace == pytest.approx(16.0)

    def test_matches_gibbs_operator_for_any_step_count(self):
        w, v = np.linalg.eigh(dense_sum(H0))
        expected = (v * np.exp(-1.3 * w)) @ v.conj().T
        ts = bloch_propagate(H0, 1.3)
        np.testing.assert_allclose(ts.rho, expected, atol=1e-10)

    def test_partition_function(self):
        eigenvalues = np.linalg.eigvalsh(dense_sum(H0))
        for beta in (0.2, 1.0, 2.5):
            ts = bloch_propagate(H0, beta)
            assert ts.trace == pytest.approx(np.sum(np.exp(-beta * eigenvalues)), abs=1e-10)

    def test_large_beta_projects_onto_ground_state(self):
        w, v = np.linalg.eigh(dense_sum(H0))
        gap = w[1] - w[0]
        beta = 40.0 / gap
        ts = bloch_propagate(H0, beta)
        ground = v[:, 0]
        fidelity = np.vdot(ground, ts.rho @ ground).real / ts.trace
        assert fidelity >= 1 - 1e-8

    def test_commutes_with_generator(self):
        ts = bloch_propagate(H0, 0.9)
        h = dense_sum(H0)
        np.testing.assert_allclose(ts.rho @ h - h @ ts.rho, 0, atol=1e-10)

    def test_positive_semidefinite(self):
        ts = bloch_propagate(H0, 1.7)
        assert np.linalg.eigvalsh(ts.rho).min() >= -1e-12

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            bloch_propagate(H0, -0.1)

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(latfield.pauli, "DENSE_QUBIT_CAP", 3)
        with pytest.raises(ResourceLimitError, match="4 qubits"):
            bloch_propagate(H0, 1.0)


class TestDecompose:
    def test_diagonal_state_keeps_only_diagonal_entries(self):
        diag = np.diag([0.5, 0.25, 0.2, 0.05]).astype(complex)
        ts = ThermalState(diag)
        ensemble = decompose(ts, threshold=0.0)
        assert all(a == b for _, a, b in ensemble.entries)
        assert ensemble.trace_estimate == pytest.approx(1.0)

    def test_threshold_above_max_empties_ensemble(self):
        ts = bloch_propagate(H0, 1.0)
        ensemble = decompose(ts, threshold=2.0 * np.abs(ts.rho).max())
        assert ensemble.entries == ()
        assert ensemble.trace_estimate == 0.0

    def test_reconstruction_error_decreases_with_threshold(self):
        rng = np.random.default_rng(21)
        pairs = []
        for _ in range(12):
            letters = "".join(rng.choice(list("IXYZ")) for _ in range(5))
            pairs.append((float(rng.uniform(-0.6, 0.6)), letters))
        h = PauliSum(5, pairs)
        ts = bloch_propagate(h, 0.8)
        errors = []
        for threshold in (0.5, 0.1, 0.01, 0.0):
            rec = decompose(ts, threshold).reconstruct()
            errors.append(np.linalg.norm(ts.rho - rec))
        assert all(a >= b for a, b in zip(errors, errors[1:]))
        assert errors[-1] < 1e-12


class TestEnsembleObservable:
    def test_zero_time_thermal_expectation(self):
        beta = 0.9
        ensemble = decompose(bloch_propagate(H0, beta), threshold=0.0)
        value = ensemble_observable(ensemble, H0, H0, t=0.0)
        w = np.linalg.eigvalsh(dense_sum(H0))
        expected = np.sum(w * np.exp(-beta * w)) / np.sum(np.exp(-beta * w))
        assert value == pytest.approx(expected, abs=1e-10)

    def test_equilibrium_quench_is_stationary(self):
        ensemble = decompose(bloch_propagate(H0, 0.7), threshold=0.0)
        values = [ensemble_observable(ensemble, H0, H0, t) for t in (0.0, 0.8, 2.3)]
        assert max(values) - min(values) < 1e-9

    def test_matches_dense_quench_oracle(self):
        h1 = build_thirring(ThirringParams(4, 0.2, 1.2))
        obs = staggered_density_op(4)
        beta = 0.8
        ensemble = decompose(bloch_propagate(H0, beta), threshold=0.0)
        for t in (0.0, 0.6, 1.7):
            value = ensemble_observable(ensemble, h1, obs, t)
            expected = dense_quench_value(H0, h1, obs, beta, t)
            assert value == pytest.approx(expected, abs=1e-8), t

    def test_permutation_invariance(self):
        ensemble = decompose(bloch_propagate(H0, 0.5), threshold=0.01)
        h1 = build_thirring(ThirringParams(4, 0.2, 1.2))
        obs = total_z(4)
        base = ensemble_observable(ensemble, h1, obs, 0.9)
        rng = np.random.default_rng(5)
        perm = rng.permutation(len(ensemble.entries))
        shuffled = PureStateEnsemble(
            entries=tuple(ensemble.entries[i] for i in perm),
            n_qubits=ensemble.n_qubits,
            trace_estimate=ensemble.trace_estimate,
        )
        assert ensemble_observable(shuffled, h1, obs, 0.9) == pytest.approx(base, abs=1e-10)

    def test_linearity_in_observable(self):
        ensemble = decompose(bloch_propagate(H0, 0.5), threshold=0.0)
        h1 = build_thirring(ThirringParams(4, 0.2, 1.2))
        a = total_z(4)
        b = staggered_density_op(4)
        combined = a + 2.5 * b
        va = ensemble_observable(ensemble, h1, a, 0.4)
        vb = ensemble_observable(ensemble, h1, b, 0.4)
        vc = ensemble_observable(ensemble, h1, combined, 0.4)
        assert vc == pytest.approx(va + 2.5 * vb, abs=1e-10)

    def test_thermal6_matches_superposition_oracle(self):
        h0 = build_thirring(ThirringParams(6, 0.5, 0.8))
        h1 = build_thirring(ThirringParams(6, 0.3, 1.0))
        obs = staggered_density_op(6)
        ensemble = decompose(bloch_propagate(h0, 1.0), threshold=0.0)
        assert len(ensemble.entries) == 3174
        for t in (0.0, 1.1, 2.3):
            value = ensemble_observable(ensemble, h1, obs, t)
            expected = superposition_ensemble_value(ensemble, h1, obs, t)
            assert value == pytest.approx(expected, abs=1e-12), t

    def test_non_hermitian_observable_rejected(self):
        ensemble = decompose(bloch_propagate(H0, 0.5), threshold=0.0)
        with pytest.raises(InvariantViolation):
            ensemble_observable(ensemble, H0, jw_creation(0, 4), 0.3)

    def test_empty_ensemble_rejected(self):
        empty = PureStateEnsemble(entries=(), n_qubits=4, trace_estimate=0.0)
        with pytest.raises(ValueError):
            ensemble_observable(empty, H0, total_z(4), 0.0)

    def test_zero_trace_rejected(self):
        offdiag = PureStateEnsemble(
            entries=((0.5 + 0j, 0, 1),), n_qubits=4, trace_estimate=0.0
        )
        with pytest.raises(ValueError):
            ensemble_observable(offdiag, H0, total_z(4), 0.0)


class TestGibbsDump:
    def test_roundtrip(self, tmp_path):
        ts = bloch_propagate(H0, 1.1)
        path = tmp_path / "gibbs.bin"
        dump_gibbs(ts, path)
        again = load_gibbs(path)
        np.testing.assert_allclose(again.rho, ts.rho, atol=0)
        assert again.trace == ts.trace

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 24)
        with pytest.raises(ValueError):
            load_gibbs(path)
