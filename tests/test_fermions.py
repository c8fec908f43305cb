import numpy as np
import pytest

from latfield.fermions import jw_annihilation, jw_creation
from latfield.pauli import DimensionError, StateVector, expectation, to_dense

from oracles import (
    dense_sum,
    fock_annihilation,
    fock_creation,
    jw_density_density,
    jw_hopping,
    jw_number,
)


def anticommutator(a, b):
    return a @ b + b @ a


class TestCreation:
    def test_first_mode_no_string(self):
        op = jw_creation(0, 1)
        assert op.coefficient_of("X") == pytest.approx(0.5)
        assert op.coefficient_of("Y") == pytest.approx(-0.5j)

    def test_z_string_dressing(self):
        # a_2^dag on 4 modes = Z Z sigma^+ I
        op = jw_creation(2, 4)
        assert op.coefficient_of("ZZXI") == pytest.approx(0.5)
        assert op.coefficient_of("ZZYI") == pytest.approx(-0.5j)
        assert len(op) == 2

    def test_matches_fock_oracle(self):
        for n in (1, 2, 4):
            for j in range(n):
                ours = dense_sum(jw_creation(j, n))
                np.testing.assert_allclose(ours, fock_creation(j, n), atol=1e-14)

    def test_adjoint_product_is_number(self):
        for j in range(3):
            num = jw_creation(j, 3).product(jw_annihilation(j, 3))
            assert num.constant_offset == pytest.approx(0.5)
            letters = "I" * j + "Z" + "I" * (2 - j)
            assert num.coefficient_of(letters) == pytest.approx(-0.5)

    def test_index_out_of_range(self):
        with pytest.raises(DimensionError):
            jw_creation(3, 3)

    def test_cross_mode_anticommutator_vanishes(self):
        a0 = dense_sum(jw_annihilation(0, 2))
        a1d = dense_sum(jw_creation(1, 2))
        np.testing.assert_allclose(anticommutator(a0, a1d), 0, atol=1e-14)


class TestCanonicalAnticommutation:
    def test_car_up_to_6_modes(self):
        n = 6
        ann = [dense_sum(jw_annihilation(j, n)) for j in range(n)]
        cre = [m.conj().T for m in ann]
        eye = np.eye(2**n)
        for i in range(n):
            for j in range(n):
                expected = eye if i == j else 0 * eye
                np.testing.assert_allclose(
                    anticommutator(ann[i], cre[j]), expected, atol=1e-13
                )
                np.testing.assert_allclose(
                    anticommutator(ann[i], ann[j]), 0 * eye, atol=1e-13
                )


class TestHopping:
    def test_adjacent_has_no_string(self):
        hop = jw_hopping(0, 1, 1.0, 2)
        assert hop.coefficient_of("XX") == pytest.approx(0.5)
        assert hop.coefficient_of("YY") == pytest.approx(0.5)
        assert len(hop) == 2
        assert hop.constant_offset == 0.0

    def test_equal_indices_rejected(self):
        with pytest.raises(ValueError):
            jw_hopping(1, 1, 1.0, 3)

    def test_long_range_against_fock_oracle(self):
        expected = fock_creation(0, 3) @ fock_annihilation(2, 3)
        expected = expected + expected.conj().T
        np.testing.assert_allclose(
            to_dense(jw_hopping(0, 2, 1.0, 3)), expected, atol=1e-14
        )

    def test_hermitian_and_traceless(self):
        hop = jw_hopping(1, 3, 0.7, 4)
        assert hop.hermitian
        m = to_dense(hop)
        np.testing.assert_allclose(m, m.conj().T, atol=1e-14)
        assert abs(np.trace(m)) < 1e-13


class TestNumber:
    def test_occupied_eigenvalue(self):
        num = jw_number(1, 3)
        assert expectation(num, StateVector.from_bits("010")) == pytest.approx(1.0)

    def test_empty_eigenvalue(self):
        num = jw_number(1, 3)
        assert expectation(num, StateVector.from_bits("000")) == pytest.approx(0.0)

    def test_counts_pattern(self):
        total = jw_number(0, 4) + jw_number(1, 4) + jw_number(2, 4) + jw_number(3, 4)
        assert expectation(total, StateVector.from_bits("0101")) == pytest.approx(2.0)

    def test_numbers_commute_pairwise(self):
        mats = [to_dense(jw_number(j, 4)) for j in range(4)]
        for a in mats:
            for b in mats:
                np.testing.assert_allclose(a @ b - b @ a, 0, atol=1e-14)


class TestDensityDensity:
    @pytest.mark.parametrize("i, j, n", [(0, 1, 2), (1, 2, 4), (0, 3, 4), (3, 1, 5)])
    def test_matches_fock_number_product(self, i, j, n):
        def number(k):
            return fock_creation(k, n) @ fock_annihilation(k, n)

        ours = dense_sum(jw_density_density(i, j, 0.7, n))
        np.testing.assert_allclose(ours, 0.7 * number(i) @ number(j), atol=1e-14)

    def test_equal_indices_rejected(self):
        with pytest.raises(ValueError):
            jw_density_density(1, 1, 1.0, 3)
