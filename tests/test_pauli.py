import importlib
import inspect
import pkgutil
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import latfield
import latfield.pauli
from latfield.models import SchwingerParams, build_schwinger
from latfield.pauli import (
    CommutingExponential,
    DimensionError,
    InvariantViolation,
    PauliSum,
    PauliTerm,
    ResourceLimitError,
    Sector,
    StateVector,
    deserialize,
    expectation,
    multiply,
    serialize,
    terms_commute,
    to_dense,
)

from oracles import dense_sum, dense_term, random_state


def random_term(n, rng, unit=False):
    letters = "".join(rng.choice(list("IXYZ")) for _ in range(n))
    if letters == "I" * n:
        letters = "X" + letters[1:]
    coeff = 1.0 if unit else float(np.round(rng.uniform(-2, 2), 6)) or 1.0
    return PauliTerm(coeff, letters)


def apply_one_term(p, s):
    """``p`` on ``s`` through a one-term sum."""
    return PauliSum(p.n_qubits, [(p.coefficient, p.letters)]).apply_to(s)


def exp_one_term(theta, p, s):
    """``exp(-i theta p)`` on ``s`` through a one-term sum."""
    rotation = CommutingExponential(PauliSum(p.n_qubits, [(p.coefficient, p.letters)]), theta)
    return StateVector(rotation.apply(s.amplitudes))


def random_sum(n, n_terms, rng):
    pairs = []
    for _ in range(n_terms):
        letters = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        pairs.append((float(rng.uniform(-1, 1)), letters))
    return PauliSum(n, pairs, constant_offset=float(rng.uniform(-1, 1)))


class TestMultiply:
    def test_involution(self):
        p = multiply(PauliTerm(1.0, "XI"), PauliTerm(1.0, "XI"))
        assert p == PauliTerm(1.0, "II")

    def test_xy_gives_iz(self):
        p = multiply(PauliTerm(1.0, "X"), PauliTerm(1.0, "Y"))
        assert p == PauliTerm(1.0, "Z", imag=True)

    def test_zz_times_zi(self):
        p = multiply(PauliTerm(1.0, "ZZ"), PauliTerm(1.0, "ZI"))
        assert p == PauliTerm(1.0, "IZ")

    def test_full_single_qubit_table(self):
        # All 16 letter pairs against the dense matrix product.
        for a in "IXYZ":
            for b in "IXYZ":
                prod = multiply(PauliTerm(1.0, a), PauliTerm(1.0, b))
                expected = dense_term(a) @ dense_term(b)
                np.testing.assert_allclose(
                    dense_term(prod.letters, prod.value), expected, atol=1e-15
                )

    def test_associativity_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p, q, r = (random_term(4, rng) for _ in range(3))
            left = multiply(multiply(p, q), r)
            right = multiply(p, multiply(q, r))
            assert (left.letters, left.imag) == (right.letters, right.imag)
            assert left.coefficient == pytest.approx(right.coefficient, rel=1e-14)

    def test_coefficient_magnitude(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            p, q = random_term(3, rng), random_term(3, rng)
            prod = multiply(p, q)
            assert abs(prod.coefficient) == pytest.approx(
                abs(p.coefficient * q.coefficient)
            )

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            multiply(PauliTerm(1.0, "X"), PauliTerm(1.0, "XX"))


class TestApplyTerm:
    def test_bit_flip(self):
        out = apply_one_term(PauliTerm(1.0, "X"), StateVector.from_bits("0"))
        np.testing.assert_allclose(out.amplitudes, [0, 1])

    def test_z_phase(self):
        out = apply_one_term(PauliTerm(1.0, "Z"), StateVector.from_bits("1"))
        np.testing.assert_allclose(out.amplitudes, [0, -1])

    def test_against_dense_6_qubits(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            p = random_term(6, rng)
            s = StateVector(random_state(6, rng))
            out = apply_one_term(p, s)
            expected = dense_term(p.letters, p.value) @ s.amplitudes
            np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)

    def test_agrees_with_to_dense_up_to_8(self):
        rng = np.random.default_rng(12)
        for n in range(1, 9):
            p = random_term(n, rng)
            s = StateVector(random_state(n, rng))
            out = apply_one_term(p, s)
            h = PauliSum(n, [(p.coefficient, p.letters)])
            expected = to_dense(h) @ s.amplitudes
            np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)

    def test_norm_scales_by_coefficient(self):
        rng = np.random.default_rng(13)
        p = random_term(4, rng)
        s = StateVector(random_state(4, rng))
        assert apply_one_term(p, s).norm() == pytest.approx(abs(p.coefficient), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            apply_one_term(PauliTerm(1.0, "XX"), StateVector.from_bits("0"))


class TestExpTermApply:
    def test_zero_angle_identity(self):
        rng = np.random.default_rng(21)
        s = StateVector(random_state(3, rng))
        out = exp_one_term(0.0, PauliTerm(1.0, "XYZ"), s)
        np.testing.assert_allclose(out.amplitudes, s.amplitudes, atol=1e-15)

    def test_quarter_rotation(self):
        out = exp_one_term(np.pi / 2, PauliTerm(1.0, "X"), StateVector.from_bits("0"))
        np.testing.assert_allclose(out.amplitudes, [0, -1j], atol=1e-15)

    def test_against_dense_expm(self):
        rng = np.random.default_rng(22)
        for _ in range(8):
            p = random_term(5, rng, unit=True)
            theta = float(rng.uniform(-3, 3))
            s = StateVector(random_state(5, rng))
            out = exp_one_term(theta, p, s)
            u = scipy.linalg.expm(-1j * theta * dense_term(p.letters))
            expected = u @ s.amplitudes
            fidelity = abs(np.vdot(expected, out.amplitudes))
            assert fidelity >= 1 - 1e-12

    def test_roundtrip_restores_state(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            p = random_term(4, rng, unit=True)
            theta = float(rng.uniform(-3, 3))
            s = StateVector(random_state(4, rng))
            back = exp_one_term(-theta, p, exp_one_term(theta, p, s))
            np.testing.assert_allclose(back.amplitudes, s.amplitudes, atol=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(24)
        p = random_term(6, rng, unit=True)
        s = StateVector(random_state(6, rng))
        assert exp_one_term(1.234, p, s).norm() == pytest.approx(1.0, abs=1e-12)


class TestExpectation:
    def test_z_eigenstate(self):
        h = PauliSum(1, [(1.0, "Z")])
        assert expectation(h, StateVector.from_bits("0")) == pytest.approx(1.0)

    def test_deuteron_two_level_diagonal(self):
        # Hand evaluation of the three diagonal terms on |10>:
        # 5.906709 - 0.218291 - 6.125 = -0.436582.
        h = PauliSum(
            2,
            [
                (0.218291, "ZI"),
                (-6.125, "IZ"),
                (-2.143304, "XX"),
                (-2.143304, "YY"),
            ],
            constant_offset=5.906709,
        )
        value = expectation(h, StateVector.from_bits("10"))
        assert value == pytest.approx(-0.436582, abs=1e-12)

    def test_against_dense_quadratic_form(self):
        rng = np.random.default_rng(31)
        for n in (2, 4, 6):
            h = random_sum(n, 12, rng)
            s = StateVector(random_state(n, rng))
            expected = np.vdot(s.amplitudes, dense_sum(h) @ s.amplitudes).real
            assert expectation(h, s) == pytest.approx(expected, abs=1e-10)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(32)
        h = random_sum(4, 8, rng)
        s = StateVector(random_state(4, rng))
        rotated = StateVector(np.exp(0.77j) * s.amplitudes)
        assert expectation(h, s) == pytest.approx(expectation(h, rotated), abs=1e-12)

    def test_non_hermitian_rejected_at_construction(self):
        with pytest.raises(InvariantViolation):
            PauliSum(1, [(1j, "X")])


class TestToDense:
    def test_identity_only(self):
        h = PauliSum(1, [], constant_offset=0.75)
        np.testing.assert_allclose(to_dense(h), 0.75 * np.eye(2))

    def test_zz_diagonal(self):
        h = PauliSum(2, [(1.0, "ZZ")])
        np.testing.assert_allclose(to_dense(h), np.diag([1, -1, -1, 1]))

    def test_hermiticity_random(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            h = random_sum(5, 10, rng)
            m = to_dense(h)
            np.testing.assert_allclose(m, m.conj().T, atol=1e-14)

    def test_against_elementwise_oracle(self):
        rng = np.random.default_rng(42)
        h = random_sum(4, 10, rng)
        np.testing.assert_allclose(to_dense(h), dense_sum(h), atol=1e-13)

    def test_cap(self, monkeypatch):
        h = PauliSum(4, [(1.0, "XXXX")])
        monkeypatch.setattr(latfield.pauli, "DENSE_QUBIT_CAP", 3)
        with pytest.raises(ResourceLimitError, match="4 qubits"):
            to_dense(h)


def test_no_callable_takes_a_cap_parameter():
    # The dense-size rule is pauli.check_dense alone; nothing passes a cap.
    def signatures(obj):
        if inspect.isclass(obj):
            for member in vars(obj).values():
                yield from signatures(getattr(member, "__func__", member))
        elif inspect.isfunction(obj):
            yield obj.__qualname__, inspect.signature(obj)

    found = []
    for info in pkgutil.iter_modules(latfield.__path__):
        module = importlib.import_module(f"latfield.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) == module.__name__:
                found += [name for name, sig in signatures(obj) if "cap" in sig.parameters]
    assert found == []


class TestPauliSum:
    def test_merging_and_identity_folding(self):
        h = PauliSum(2, [(0.5, "XX"), (0.25, "XX"), (1.0, "II"), (1e-16, "ZZ")])
        assert len(h) == 1
        assert h.coefficient_of("XX") == pytest.approx(0.75)
        assert h.constant_offset == pytest.approx(1.0)

    def test_product_expands_squares(self):
        # (Z0 + Z1)^2 = 2 I + 2 Z0 Z1
        h = PauliSum(2, [(1.0, "ZI"), (1.0, "IZ")])
        sq = h.product(h)
        assert sq.constant_offset == pytest.approx(2.0)
        assert sq.coefficient_of("ZZ") == pytest.approx(2.0)
        assert len(sq) == 1

    def test_product_keeps_an_imaginary_part_of_1e_12(self):
        # (1.5 + 1.5e-12 i) I times 2 I + Z: every coefficient's imaginary part
        # is 1e-12 of its real one, which a Hermitian result would drop.
        a = PauliSum(1, [], constant_offset=1.5) * complex(1.0, 1e-12)
        b = PauliSum(1, [(1.0, "Z")], constant_offset=2.0)
        product = a.product(b)
        assert not product.hermitian
        expected = dense_sum(a) @ dense_sum(b)
        np.testing.assert_allclose(dense_sum(product), expected, rtol=0, atol=1e-15)

    def test_addition_merges(self):
        a = PauliSum(2, [(1.0, "XY")])
        b = PauliSum(2, [(-1.0, "XY"), (0.5, "ZI")])
        s = a + b
        assert len(s) == 1
        assert s.coefficient_of("ZI") == pytest.approx(0.5)

    def test_commutation_helper(self):
        assert terms_commute(PauliTerm(1.0, "XX"), PauliTerm(1.0, "YY"))
        assert not terms_commute(PauliTerm(1.0, "XI"), PauliTerm(1.0, "YI"))
        assert terms_commute(PauliTerm(1.0, "XX"), PauliTerm(1.0, "IX"))

    def test_full_space_compiles_as_the_trivial_sector(self):
        # One compiled-form cache: apply_to keeps its form under Sector(n),
        # as any sector does, and the sum holds no form of its own.
        h = PauliSum(3, [(0.5, "XYZ"), (-1.0, "ZIZ"), (0.3, "IXI")], constant_offset=0.25)
        assert not hasattr(h, "flip_groups")
        s = StateVector(random_state(3, np.random.default_rng(5)))
        out = h.apply_to(s)
        assert list(Sector._forms[h]) == [Sector(3)]
        form, leak = Sector._forms[h][Sector(3)]
        assert leak is None and Sector(3).compile(h) is form
        np.testing.assert_allclose(out.amplitudes, dense_sum(h) @ s.amplitudes, rtol=0, atol=1e-12)

    def test_compile_holds_little_beyond_the_form_it_keeps(self):
        # The 16-site Schwinger Hamiltonian on its 12 870 charge-0 states
        # keeps a 4.6 MiB form.  The rank and sign tables add about 1 MiB
        # while the compile runs; a per-row sum over the 120 terms of its
        # diagonal, as one (rows, terms) array, would add 12 MB.
        h = build_schwinger(SchwingerParams(16, 0.5, 1.0))
        indices = Sector.of_charge(16, 0).indices
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            form = latfield.pauli._compile(h, indices)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert form[1] is None and kept - before > 4 * 2**20
        assert peak - kept < 2 * 2**20


class TestSerialization:
    def test_format(self):
        h = PauliSum(3, [(-2.143304, "XXI")], constant_offset=5.906709)
        text = serialize(h)
        assert text.splitlines()[0] == "5.906709 III"
        assert "-2.143304 XXI" in text

    def test_roundtrip_bit_exact(self):
        rng = np.random.default_rng(51)
        h = random_sum(5, 14, rng)
        again = deserialize(serialize(h))
        assert serialize(again) == serialize(h)
        assert again.constant_offset == h.constant_offset
        for letters, coeff in h.items():
            assert again.coefficient_of(letters) == coeff


class TestStateVector:
    def test_from_bits_index(self):
        s = StateVector.from_bits("0101")
        assert np.argmax(np.abs(s.amplitudes)) == 10

    def test_bad_size(self):
        with pytest.raises(DimensionError):
            StateVector(np.ones(3, dtype=complex))

    def test_check_normalized(self):
        s = StateVector(np.array([0.5, 0.5], dtype=complex))
        with pytest.raises(InvariantViolation):
            s.check_normalized()
