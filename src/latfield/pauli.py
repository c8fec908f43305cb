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
element sums exactly as a term-by-term fill would.  A sum builds these
diagonals once, on first use, and keeps them.  ``Sector.compile``
restricts them to a basis (a charge sector, or the full space), and every
kernel reads that form: one gather applies it, one scatter fills dense
matrices from it, and the commuting-group exponentials rotate with it.

Terms and sums are immutable after construction and safe to share across
threads.  The kernels never mutate their input state; a caller that reuses
amplitude buffers must follow a single-writer discipline.
"""

from __future__ import annotations

import weakref
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
        """Return ``H|s>``: the gather kernel over the full space."""
        if s.n_qubits != self.n_qubits:
            raise DimensionError("operator and state qubit counts differ")
        return StateVector(_gather(self.flip_groups(), s.amplitudes))


def _gather(form, amps: np.ndarray) -> np.ndarray:
    """``sum_x d_x * amps[gather_x]`` over a compiled form (a None gather is
    the diagonal part): the one kernel that applies an operator."""
    out = np.zeros_like(amps)
    for _, diagonal, gather in form:
        out += diagonal * (amps if gather is None else amps[gather])
    return out


class Sector:
    """The basis a computation runs on: sorted computational-basis indices,
    or all ``2^n`` states for the full space, ``Sector(n)``.

    ``of_charge`` gives the states of one total staggered charge,
    ``n // 2 - popcount(k)`` (``models.basis_charge``), which every lattice
    model here conserves.  Sector amplitudes are indexed by position in
    ``indices``; sectors with the same basis compare equal.
    """

    __slots__ = ("n_qubits", "_indices", "_key", "_z_values")

    # Restricted forms per Hamiltonian and sector, kept while ``h`` lives.
    _forms: "weakref.WeakKeyDictionary[PauliSum, dict]" = weakref.WeakKeyDictionary()

    def __init__(self, n_qubits: int, indices: np.ndarray | None = None):
        self.n_qubits = n_qubits
        self._indices = None if indices is None else np.asarray(indices, dtype=np.int64)
        self._key = (n_qubits, None if indices is None else self._indices.tobytes())
        self._z_values = None

    @classmethod
    def of_charge(cls, n_qubits: int, total_charge: int) -> "Sector":
        weights = np.bitwise_count(np.arange(2**n_qubits))
        return cls(n_qubits, np.flatnonzero(weights == n_qubits // 2 - total_charge))

    @classmethod
    def of_state(cls, s: StateVector) -> "Sector":
        """The charge sector holding every nonzero amplitude of ``s``, or the
        full space when they span several charges."""
        weights = np.unique(np.bitwise_count(np.flatnonzero(s.amplitudes)))
        if weights.size != 1:
            return cls(s.n_qubits)
        return cls.of_charge(s.n_qubits, s.n_qubits // 2 - int(weights[0]))

    @property
    def indices(self) -> np.ndarray:
        return np.arange(2**self.n_qubits) if self._indices is None else self._indices

    @property
    def dim(self) -> int:
        return 2**self.n_qubits if self._indices is None else self._indices.size

    @property
    def z_values(self) -> np.ndarray:
        """``(dim, n)`` Z eigenvalues (+1 for a clear bit) of the basis
        states, built once per sector and read-only."""
        if self._z_values is None:
            z = 1.0 - 2.0 * (self.indices[:, None] >> np.arange(self.n_qubits) & 1)
            z.flags.writeable = False
            self._z_values = z
        return self._z_values

    def __eq__(self, other) -> bool:
        return isinstance(other, Sector) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def embed(self, amps: np.ndarray) -> StateVector:
        """The full statevector with these sector amplitudes."""
        if self._indices is None:
            return StateVector(amps)
        out = np.zeros(2**self.n_qubits, dtype=complex)
        out[self._indices] = amps
        return StateVector(out)

    def restrict(self, s: StateVector) -> np.ndarray:
        """The sector amplitudes of ``s``; raises InvariantViolation if ``s``
        has a nonzero amplitude outside the sector."""
        if s.n_qubits != self.n_qubits:
            raise DimensionError("state and sector qubit counts differ")
        amps = s.amplitudes if self._indices is None else s.amplitudes[self._indices]
        if np.count_nonzero(amps) != np.count_nonzero(s.amplitudes):
            raise InvariantViolation("state has amplitude outside the sector")
        return amps

    def compile(self, h: PauliSum):
        """``h`` on the sector: ``(x, d, gather)`` per flip mask ``x``, with
        ``(h psi)[i] = sum_x d[i] psi[gather[i]]`` on sector amplitudes.  The
        full space hands back ``h.flip_groups()`` itself.

        Raises InvariantViolation if ``h`` maps a sector state outside the
        sector: an element counts when it exceeds 1e-12 of the largest one.
        """
        form, leak = self._form(h)
        if leak is not None:
            raise InvariantViolation(
                f"flip mask {leak:#b} maps sector states outside the index set"
            )
        return form

    def closed_under(self, h: PauliSum) -> bool:
        """Whether ``h`` maps the sector into itself, by the test of ``compile``."""
        return self._form(h)[1] is None

    def apply(self, h: PauliSum, amps: np.ndarray) -> np.ndarray:
        return _gather(self.compile(h), amps)

    def matrix(self, h: PauliSum) -> np.ndarray:
        """Dense matrix of ``h`` on the sector, filled one flip mask at a
        time: ``mat[i, gather[i]] = d[i]``."""
        # Compile before allocating: the compiled arrays of a short-lived
        # ``h`` are then freed below the matrix, so repeated builds reuse
        # the same memory on every run.
        form = self.compile(h)
        mat = np.zeros((self.dim, self.dim), dtype=complex)
        rows = np.arange(self.dim)
        # A row a flip mask takes out of the sector gathers from itself with
        # weight zero; the diagonal part is written last, over those zeros.
        for _, diagonal, gather in sorted(form, key=lambda group: group[2] is None):
            mat[rows, rows if gather is None else gather] = diagonal
        return mat

    def _form(self, h: PauliSum):
        """(compiled form, first leaking flip mask or None)."""
        if h.n_qubits != self.n_qubits:
            raise DimensionError("operator and sector qubit counts differ")
        if self._indices is None:
            return h.flip_groups(), None
        forms = self._forms.setdefault(h, {})
        if self not in forms:
            indices = self._indices
            rows = np.arange(indices.size)
            groups = h.flip_groups()
            largest = max((np.abs(d).max() for _, d, _ in groups), default=0.0)
            form, leak = [], None
            for xmask, diagonal, source in groups:
                if source is None:
                    form.append((xmask, diagonal[indices], None))
                    continue
                targets = indices ^ xmask
                pos = np.minimum(np.searchsorted(indices, targets), indices.size - 1)
                inside = indices[pos] == targets
                escaped = np.abs(diagonal[targets[~inside]])
                if leak is None and escaped.max(initial=0.0) > 1e-12 * largest:
                    leak = xmask
                form.append(
                    (xmask, np.where(inside, diagonal[indices], 0), np.where(inside, pos, rows))
                )
            forms[self] = (tuple(form), leak)
        return forms[self]


class CommutingExponential:
    """``exp(-i theta H)`` for a Hermitian sum ``H`` of pairwise commuting
    Pauli strings on a sector (the full space by default), precomputed for
    one angle.

    The flip-mask parts of ``H`` commute with each other, so the exponential
    factorizes exactly over them.  The diagonal part is one phase vector.
    An off-diagonal part ``H_x`` squares to ``diag(|d_x|^2)``, hence
    ``exp(-i theta H_x) psi = cos(theta |d_x|) psi
    - i (sin(theta |d_x|) / |d_x|) d_x psi[gather_x]``.
    """

    __slots__ = ("_phases", "_rotations")

    def __init__(self, h: PauliSum, theta: float, sector: Sector | None = None):
        if not h.hermitian:
            raise InvariantViolation("exponentials require a Hermitian PauliSum")
        self._phases = None
        self._rotations = []
        for _, diagonal, gather in (sector or Sector(h.n_qubits)).compile(h):
            if gather is None:
                self._phases = np.exp(-1j * theta * diagonal.real)
                continue
            magnitude = np.abs(diagonal)
            # sin(theta r) / r written through sinc, which is theta at r = 0.
            coupling = -1j * theta * np.sinc(theta * magnitude / np.pi) * diagonal
            self._rotations.append((np.cos(theta * magnitude), coupling, gather))

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
    """Dense 2^n x 2^n matrix of the sum (test/oracle use only): the
    full-space ``Sector.matrix``, ``mat[k, k ^ x] = d_x[k]``."""
    if h.n_qubits > cap:
        raise ResourceLimitError(
            f"dense matrix for {h.n_qubits} qubits exceeds cap {cap}"
        )
    return Sector(h.n_qubits).matrix(h)


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
