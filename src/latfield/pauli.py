"""Pauli-string algebra and exact statevector kernels.

Conventions used throughout the package:

* Qubit ``j`` maps to bit ``j`` of the basis-state integer index (bit 0 is
  the least-significant bit).
* ``|0>`` is the +1 eigenstate of Z, ``|1>`` the -1 eigenstate.
* A Pauli string is a letter sequence over ``IXYZ`` where ``letters[j]``
  acts on qubit ``j``.  Ket strings are written the same way: ``"01"``
  means qubit 0 in ``|0>`` and qubit 1 in ``|1>`` (basis index 2).
* Raising/lowering combinations are expanded into ``{I,X,Y,Z}`` strings at
  construction time; no other letters are ever stored.

A :class:`PauliTerm` is a canonical Pauli-group element: a real coefficient,
a letter string, and an ``imag`` flag marking an extra folded factor ``i``
(products of Pauli strings pick up phases in ``{1,-1,i,-i}``; the sign lives
in the coefficient, the ``i`` in the flag).  Hermitian operators are
represented by :class:`PauliSum` objects whose stored coefficients are all
real with ``imag`` unset.

Every kernel reads one compiled form of a sum, its flip-mask groups.  A
Pauli string maps basis state ``k`` to ``k ^ x`` (``x`` the mask of its X
and Y letters) times a phase, so ``(H psi)[k] = sum_x d_x[k] psi[k ^ x]``
with one complex diagonal ``d_x`` per distinct mask, in first-appearance
order.  Each ``d_x`` accumulates its terms in storage order; a nonzero
constant offset comes first, as the seed of ``d_0``, so every matrix
element sums exactly as a term-by-term fill would.  ``apply_to``,
``to_dense``, ``structure.sector_matrix`` and the commuting-group
exponentials of the Trotter sweep and the VQE layers all read these
diagonals, which a sum builds once, on first use, and keeps.

Terms and sums are immutable after construction and safe to share across
threads.  The kernels never mutate their input state; a caller that reuses
amplitude buffers must follow a single-writer discipline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

PAULI_LETTERS = "IXYZ"

DENSE_QUBIT_CAP = 14
"""Largest qubit count for which dense 2^n x 2^n oracles are built."""

MERGE_TOLERANCE = 1e-14
"""Coefficients with magnitude below this are dropped after merging."""

_SINGLE_QUBIT_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

# Single-qubit group products: (a, b) -> (a*b letter, phase exponent k with
# a*b = i^k * letter).
_PRODUCT_TABLE: dict[tuple[str, str], tuple[str, int]] = {}
for _a in PAULI_LETTERS:
    for _b in PAULI_LETTERS:
        _m = _SINGLE_QUBIT_MATRICES[_a] @ _SINGLE_QUBIT_MATRICES[_b]
        for _c in PAULI_LETTERS:
            _ref = _SINGLE_QUBIT_MATRICES[_c]
            for _k in range(4):
                if np.allclose(_m, (1j**_k) * _ref):
                    _PRODUCT_TABLE[(_a, _b)] = (_c, _k)
                    break
            else:
                continue
            break
del _a, _b, _c, _k, _m, _ref


class DimensionError(ValueError):
    """Operands act on different qubit counts or malformed sizes."""


class ResourceLimitError(RuntimeError):
    """A dense-matrix oracle was requested above the configured qubit cap."""


class InvariantViolation(RuntimeError):
    """An internal consistency guarantee was broken."""


def _check_letters(letters: str) -> None:
    if not letters or any(c not in PAULI_LETTERS for c in letters):
        raise ValueError(f"invalid Pauli letter string {letters!r}")


@dataclass(frozen=True)
class PauliTerm:
    """One weighted Pauli string in canonical form.

    The represented operator is ``coefficient * (i if imag else 1) * P``
    where ``P`` is the tensor product of the letters.
    """

    coefficient: float
    letters: str
    imag: bool = False

    def __post_init__(self) -> None:
        _check_letters(self.letters)
        if not np.isfinite(self.coefficient):
            raise ValueError("non-finite coefficient")

    @property
    def n_qubits(self) -> int:
        return len(self.letters)

    @property
    def value(self) -> complex:
        """Full complex weight including the folded phase."""
        return self.coefficient * (1j if self.imag else 1.0)

    @property
    def weight(self) -> int:
        """Number of non-identity letters."""
        return sum(1 for c in self.letters if c != "I")

    def adjoint(self) -> "PauliTerm":
        if self.imag:
            return PauliTerm(-self.coefficient, self.letters, True)
        return self

    def __repr__(self) -> str:
        phase = "i*" if self.imag else ""
        return f"PauliTerm({self.coefficient:+g}*{phase}{self.letters})"


def multiply(p: PauliTerm, q: PauliTerm) -> PauliTerm:
    """Pauli-group product ``p * q`` in canonical form."""
    if len(p.letters) != len(q.letters):
        raise DimensionError(
            f"term lengths differ: {len(p.letters)} vs {len(q.letters)}"
        )
    phase_power = (1 if p.imag else 0) + (1 if q.imag else 0)
    out = []
    for a, b in zip(p.letters, q.letters):
        letter, k = _PRODUCT_TABLE[(a, b)]
        out.append(letter)
        phase_power += k
    phase_power %= 4
    coeff = p.coefficient * q.coefficient
    if phase_power in (2, 3):
        coeff = -coeff
    return PauliTerm(coeff, "".join(out), imag=phase_power % 2 == 1)


def terms_commute(p: PauliTerm, q: PauliTerm) -> bool:
    """Two Pauli strings commute iff they differ on an even number of
    positions where both letters are non-identity."""
    if len(p.letters) != len(q.letters):
        raise DimensionError("term lengths differ")
    clashes = sum(
        1
        for a, b in zip(p.letters, q.letters)
        if a != "I" and b != "I" and a != b
    )
    return clashes % 2 == 0


def letters_at(n_qubits: int, placements: Mapping[int, str]) -> str:
    """Letter string with the given single-qubit letters, identity elsewhere."""
    letters = ["I"] * n_qubits
    for site, letter in placements.items():
        if not 0 <= site < n_qubits:
            raise DimensionError(f"qubit index {site} out of range for n={n_qubits}")
        letters[site] = letter
    return "".join(letters)


class StateVector:
    """Normalized complex amplitudes over the 2^n computational basis."""

    __slots__ = ("amplitudes", "n_qubits")

    def __init__(self, amplitudes: np.ndarray, n_qubits: int | None = None):
        amplitudes = np.asarray(amplitudes, dtype=complex)
        if amplitudes.ndim != 1:
            raise DimensionError("amplitudes must be a flat array")
        n = int(amplitudes.size).bit_length() - 1
        if 2**n != amplitudes.size:
            raise DimensionError(f"amplitude count {amplitudes.size} is not a power of 2")
        if n_qubits is not None and n_qubits != n:
            raise DimensionError(f"expected 2^{n_qubits} amplitudes, got {amplitudes.size}")
        self.amplitudes = amplitudes
        self.n_qubits = n

    @classmethod
    def basis_state(cls, n_qubits: int, index: int) -> "StateVector":
        if not 0 <= index < 2**n_qubits:
            raise DimensionError(f"basis index {index} out of range")
        amp = np.zeros(2**n_qubits, dtype=complex)
        amp[index] = 1.0
        return cls(amp)

    @classmethod
    def from_bits(cls, bits: str) -> "StateVector":
        """Basis state from a ket string, qubit 0 first (e.g. "01" -> index 2)."""
        if any(b not in "01" for b in bits):
            raise ValueError(f"invalid bit string {bits!r}")
        index = sum(1 << j for j, b in enumerate(bits) if b == "1")
        return cls.basis_state(len(bits), index)

    def bits_of(self, index: int) -> str:
        return "".join("1" if index >> j & 1 else "0" for j in range(self.n_qubits))

    def copy(self) -> "StateVector":
        return StateVector(self.amplitudes.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def inner(self, other: "StateVector") -> complex:
        """<self|other>."""
        if other.n_qubits != self.n_qubits:
            raise DimensionError("qubit counts differ")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def check_normalized(self, tol: float = 1e-10) -> None:
        if abs(self.norm() - 1.0) > tol:
            raise InvariantViolation(f"state norm {self.norm()} deviates from 1")

    def __repr__(self) -> str:
        return f"StateVector(n_qubits={self.n_qubits})"


def _masks(letters: str) -> tuple[int, int, int]:
    """(flip mask, phase mask, number of Ys) for a letter string."""
    xmask = zmask = ny = 0
    for j, c in enumerate(letters):
        if c in ("X", "Y"):
            xmask |= 1 << j
        if c in ("Z", "Y"):
            zmask |= 1 << j
        if c == "Y":
            ny += 1
    return xmask, zmask, ny


def apply_term(p: PauliTerm, s: StateVector) -> StateVector:
    """Return ``p`` acting on ``s``; the norm scales by |p.coefficient|."""
    if p.n_qubits != s.n_qubits:
        raise DimensionError("term and state qubit counts differ")
    unit = PauliSum(p.n_qubits, [(1.0, p.letters)])
    return StateVector(p.value * unit.apply_to(s).amplitudes)


def exp_term_apply(theta: float, p: PauliTerm, s: StateVector) -> StateVector:
    """Apply ``exp(-i * theta * P)`` for a unit-coefficient Pauli string."""
    if p.imag or p.coefficient != 1.0:
        raise ValueError("exp_term_apply requires a unit-coefficient Hermitian term")
    if p.n_qubits != s.n_qubits:
        raise DimensionError("term and state qubit counts differ")
    rotation = CommutingExponential(PauliSum(p.n_qubits, [(1.0, p.letters)]), theta)
    return StateVector(rotation.apply(s.amplitudes))


class PauliSum:
    """Weighted sum of Pauli strings on a fixed qubit count.

    Duplicate letter strings are merged, near-zero coefficients dropped, and
    the all-identity component is kept separately in ``constant_offset``.
    Hamiltonians and observables are Hermitian (real coefficients); builders
    of raising/lowering operators use ``hermitian=False`` internally.
    """

    __slots__ = (
        "n_qubits",
        "constant_offset",
        "hermitian",
        "_strings",
        "_coeffs",
        "_flip_groups",
        "__weakref__",
    )

    def __init__(
        self,
        n_qubits: int,
        terms: Iterable[tuple[complex, str]] = (),
        constant_offset: complex = 0.0,
        hermitian: bool = True,
    ):
        if n_qubits < 1:
            raise DimensionError("n_qubits must be positive")
        acc: dict[str, complex] = {}
        offset = complex(constant_offset)
        for coeff, letters in terms:
            _check_letters(letters)
            if len(letters) != n_qubits:
                raise DimensionError(
                    f"term {letters!r} does not act on {n_qubits} qubits"
                )
            if set(letters) == {"I"}:
                offset += complex(coeff)
            else:
                acc[letters] = acc.get(letters, 0.0) + complex(coeff)
        strings = []
        coeffs = []
        for letters, coeff in acc.items():
            if abs(coeff) < MERGE_TOLERANCE:
                continue
            strings.append(letters)
            coeffs.append(coeff)
        if hermitian:
            scale = max([1.0] + [abs(c) for c in coeffs] + [abs(offset)])
            bad = [abs(c.imag) for c in coeffs] + [abs(offset.imag)]
            if bad and max(bad) > 1e-12 * scale:
                raise InvariantViolation(
                    "non-Hermitian coefficients in a Hermitian PauliSum"
                )
            coeffs = [c.real for c in coeffs]
            offset = offset.real
        self.n_qubits = n_qubits
        self.constant_offset = offset
        self.hermitian = hermitian
        self._strings = tuple(strings)
        self._coeffs = np.asarray(coeffs, dtype=complex)
        self._flip_groups = None

    # -- views ---------------------------------------------------------

    @property
    def terms(self) -> tuple[PauliTerm, ...]:
        """Canonical PauliTerm view (real/imag parts as separate terms)."""
        out = []
        for letters, coeff in zip(self._strings, self._coeffs):
            c = complex(coeff)
            if abs(c.real) >= MERGE_TOLERANCE:
                out.append(PauliTerm(c.real, letters, False))
            if abs(c.imag) >= MERGE_TOLERANCE:
                out.append(PauliTerm(c.imag, letters, True))
        return tuple(out)

    def coefficient_of(self, letters: str) -> complex:
        _check_letters(letters)
        for s, c in zip(self._strings, self._coeffs):
            if s == letters:
                return complex(c)
        return 0.0

    def items(self) -> list[tuple[str, complex]]:
        return list(zip(self._strings, (complex(c) for c in self._coeffs)))

    def __len__(self) -> int:
        return len(self._strings)

    def __repr__(self) -> str:
        kind = "hermitian" if self.hermitian else "general"
        return (
            f"PauliSum(n_qubits={self.n_qubits}, terms={len(self)}, "
            f"offset={self.constant_offset}, {kind})"
        )

    # -- algebra -------------------------------------------------------

    def _pairs(self) -> list[tuple[complex, str]]:
        return [(complex(c), s) for s, c in zip(self._strings, self._coeffs)]

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if not isinstance(other, PauliSum):
            return NotImplemented
        if other.n_qubits != self.n_qubits:
            raise DimensionError("qubit counts differ")
        return PauliSum(
            self.n_qubits,
            self._pairs() + other._pairs(),
            self.constant_offset + other.constant_offset,
            hermitian=self.hermitian and other.hermitian,
        )

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "PauliSum":
        if not isinstance(scalar, (int, float, complex, np.integer)):
            return NotImplemented
        herm = self.hermitian and abs(complex(scalar).imag) == 0.0
        return PauliSum(
            self.n_qubits,
            [(c * scalar, s) for c, s in self._pairs()],
            self.constant_offset * scalar,
            hermitian=herm,
        )

    __rmul__ = __mul__

    def adjoint(self) -> "PauliSum":
        return PauliSum(
            self.n_qubits,
            [(np.conj(c), s) for c, s in self._pairs()],
            np.conj(self.constant_offset),
            hermitian=self.hermitian,
        )

    def product(self, other: "PauliSum") -> "PauliSum":
        """Operator product, expanded term by term and re-canonicalized.

        Hermiticity of the result is detected from the merged coefficients.
        """
        if other.n_qubits != self.n_qubits:
            raise DimensionError("qubit counts differ")
        identity = "I" * self.n_qubits
        left = self._pairs() + [(complex(self.constant_offset), identity)]
        right = other._pairs() + [(complex(other.constant_offset), identity)]
        acc: dict[str, complex] = {}
        for ca, sa in left:
            if ca == 0.0:
                continue
            pa = PauliTerm(1.0, sa)
            for cb, sb in right:
                if cb == 0.0:
                    continue
                prod = multiply(pa, PauliTerm(1.0, sb))
                acc[prod.letters] = acc.get(prod.letters, 0.0) + ca * cb * prod.value
        pairs = [(c, s) for s, c in acc.items()]
        scale = max([1.0] + [abs(c) for c, _ in pairs])
        herm = all(abs(c.imag) <= 1e-12 * scale for c, _ in pairs)
        return PauliSum(self.n_qubits, pairs, hermitian=herm)

    # -- kernels -------------------------------------------------------

    def flip_groups(self) -> tuple[tuple[int, np.ndarray, np.ndarray | None], ...]:
        """The compiled form: ``(x, d_x, source)`` per distinct flip mask ``x``.

        ``(H psi)[k] = sum_x d_x[k] * psi[k ^ x]``; ``source`` is the index
        array ``k ^ x``, or None for the diagonal mask 0.  Built once on
        first use; the arrays are read-only.
        """
        if self._flip_groups is None:
            idx = np.arange(2**self.n_qubits)
            diagonals: dict[int, np.ndarray] = {}
            if self.constant_offset != 0:
                diagonals[0] = np.full(idx.size, complex(self.constant_offset))
            for letters, coeff in zip(self._strings, self._coeffs):
                xmask, zmask, ny = _masks(letters)
                signs = 1.0 - 2.0 * (np.bitwise_count((idx ^ xmask) & zmask) & 1)
                element = complex(coeff) * 1j**ny * signs
                if xmask in diagonals:
                    diagonals[xmask] += element
                else:
                    diagonals[xmask] = element
            groups = []
            for xmask, diagonal in diagonals.items():
                source = idx ^ xmask if xmask else None
                for array in (diagonal, source):
                    if array is not None:
                        array.flags.writeable = False
                groups.append((xmask, diagonal, source))
            self._flip_groups = tuple(groups)
        return self._flip_groups

    def apply_to(self, s: StateVector) -> StateVector:
        """Return ``H|s>``, one multiply-add per flip mask."""
        if s.n_qubits != self.n_qubits:
            raise DimensionError("operator and state qubit counts differ")
        amps = s.amplitudes
        out = np.zeros_like(amps)
        for _, diagonal, source in self.flip_groups():
            out += diagonal * (amps if source is None else amps[source])
        return StateVector(out)


class CommutingExponential:
    """``exp(-i theta H)`` for a Hermitian sum ``H`` of pairwise commuting
    Pauli strings, precomputed for one angle.

    The flip-mask parts of ``H`` commute with each other, so the exponential
    factorizes exactly over them.  The diagonal part is one phase vector.
    An off-diagonal part ``H_x`` squares to ``diag(|d_x|^2)``, hence
    ``exp(-i theta H_x) psi = cos(theta |d_x|) psi
    - i (sin(theta |d_x|) / |d_x|) d_x psi[k ^ x]``.
    """

    __slots__ = ("_phases", "_rotations")

    def __init__(self, h: PauliSum, theta: float):
        if not h.hermitian:
            raise InvariantViolation("exponentials require a Hermitian PauliSum")
        self._phases = None
        self._rotations = []
        for _, diagonal, source in h.flip_groups():
            if source is None:
                self._phases = np.exp(-1j * theta * diagonal.real)
                continue
            magnitude = np.abs(diagonal)
            # sin(theta r) / r written through sinc, which is theta at r = 0.
            coupling = -1j * theta * np.sinc(theta * magnitude / np.pi) * diagonal
            self._rotations.append((np.cos(theta * magnitude), coupling, source))

    def apply(self, amps: np.ndarray) -> np.ndarray:
        """The exponential applied to ``amps``; the input is not modified."""
        if self._phases is not None:
            amps = self._phases * amps
        for cos, coupling, source in self._rotations:
            amps = cos * amps + coupling * amps[source]
        return amps


def expectation(h: PauliSum, s: StateVector) -> float:
    """``<s|h|s>`` for a Hermitian sum on a normalized state."""
    if not h.hermitian:
        raise InvariantViolation("expectation requires a Hermitian PauliSum")
    hs = h.apply_to(s)
    value = s.inner(hs)
    if abs(value.imag) > 1e-10 * max(1.0, abs(value.real)):
        raise InvariantViolation(f"expectation has imaginary residue {value.imag}")
    return value.real


def to_dense(h: PauliSum, cap: int = DENSE_QUBIT_CAP) -> np.ndarray:
    """Dense 2^n x 2^n matrix of the sum (test/oracle use only), filled
    with one flip-mask diagonal at a time: ``mat[k, k ^ x] = d_x[k]``."""
    if h.n_qubits > cap:
        raise ResourceLimitError(
            f"dense matrix for {h.n_qubits} qubits exceeds cap {cap}"
        )
    dim = 2**h.n_qubits
    mat = np.zeros((dim, dim), dtype=complex)
    rows = np.arange(dim)
    for xmask, diagonal, _ in h.flip_groups():
        mat[rows, rows ^ xmask] = diagonal
    return mat


# -- serialization ------------------------------------------------------


def serialize(h: PauliSum) -> str:
    """One term per line: ``<coefficient> <letters>``; the identity offset is
    the first line with an all-I letter string.  Floats are printed in
    shortest round-trip form, so parsing reproduces the sum bit-exactly."""
    if not h.hermitian:
        raise InvariantViolation("only Hermitian sums serialize")
    lines = [f"{float(h.constant_offset)!r} {'I' * h.n_qubits}"]
    for letters, coeff in h.items():
        lines.append(f"{float(coeff.real)!r} {letters}")
    return "\n".join(lines) + "\n"


def deserialize(text: str) -> PauliSum:
    pairs: list[tuple[complex, str]] = []
    n_qubits = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected '<coefficient> <letters>'")
        coeff = float(fields[0])
        letters = fields[1]
        _check_letters(letters)
        if n_qubits is None:
            n_qubits = len(letters)
        elif len(letters) != n_qubits:
            raise ValueError(f"line {lineno}: inconsistent qubit count")
        pairs.append((coeff, letters))
    if n_qubits is None:
        raise ValueError("empty PauliSum text")
    return PauliSum(n_qubits, pairs)
