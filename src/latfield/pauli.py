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
in the coefficient, the ``i`` in the flag).  A string is also read as its
``(x, z)`` masks, the qubits holding X or Y and Z or Y: ``multiply``,
``terms_commute`` and the compiled form all work on the masks.  Hermitian
operators are represented by :class:`PauliSum` objects whose stored
coefficients are all real with ``imag`` unset.

Every kernel reads one compiled form of a sum, its flip-mask groups.  A
Pauli string maps basis state ``k`` to ``k ^ x`` (``x`` the mask of its X
and Y letters) times a phase, so ``(H psi)[k] = sum_x d_x[k] psi[k ^ x]``
with one complex diagonal ``d_x`` per distinct mask, in first-appearance
order; a nonzero constant offset is a term of ``d_0``.  ``Sector.compile``
builds this form on a sector from the terms: each mask's terms are summed
on all ``2^n`` states by one product of two small sign tables, read at
the sector's states, and the form is kept while the sum lives; the full
space is the trivial sector, compiled the same way.  Every kernel reads
that form: one gather applies it, one scatter fills dense matrices from
it, and the commuting-group exponentials rotate with it.

A :class:`StateVector` carries its sector (the full space is the trivial
one), and every computation on a state runs in its sector.

Terms and sums are immutable after construction and safe to share across
threads.  The kernels never mutate their input state; a caller that reuses
amplitude buffers must follow a single-writer discipline.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

PAULI_LETTERS = "IXYZ"

DENSE_QUBIT_CAP = 14
"""Largest qubit count for which dense matrices and eigendecompositions are
built; ``check_dense`` is the one place it is read."""

MERGE_TOLERANCE = 1e-14
"""Coefficients with magnitude below this are dropped after merging."""


class DimensionError(ValueError):
    """Operands act on different qubit counts or malformed sizes."""


class ResourceLimitError(RuntimeError):
    """A dense matrix or eigendecomposition was requested above
    ``DENSE_QUBIT_CAP``."""


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

    @cached_property
    def masks(self) -> tuple[int, int]:
        """``(x, z)``: bit ``j`` of ``x`` is set for X or Y on qubit ``j``,
        of ``z`` for Z or Y."""
        return _masks(self.letters)[:2]

    def adjoint(self) -> "PauliTerm":
        if self.imag:
            return PauliTerm(-self.coefficient, self.letters, True)
        return self

    def __repr__(self) -> str:
        phase = "i*" if self.imag else ""
        return f"PauliTerm({self.coefficient:+g}*{phase}{self.letters})"


def multiply(p: PauliTerm, q: PauliTerm) -> PauliTerm:
    """Pauli-group product ``p * q`` in canonical form, on the ``(x, z)`` masks.

    A string is ``i^y X^x Z^z`` with ``y = popcount(x & z)`` its Y count, so
    ``p q = i^(y_p + y_q - y_pq + 2 popcount(z_p & x_q)) P(x_p ^ x_q, z_p ^ z_q)``
    (Aaronson & Gottesman, arXiv:quant-ph/0406196)."""
    if len(p.letters) != len(q.letters):
        raise DimensionError(
            f"term lengths differ: {len(p.letters)} vs {len(q.letters)}"
        )
    (xp, zp), (xq, zq) = p.masks, q.masks
    x, z = xp ^ xq, zp ^ zq
    phase_power = (
        p.imag + q.imag + (xp & zp).bit_count() + (xq & zq).bit_count()
        - (x & z).bit_count() + 2 * (zp & xq).bit_count()
    ) % 4
    letters = "".join("IXZY"[(x >> j & 1) | (z >> j & 1) << 1] for j in range(len(p.letters)))
    coeff = p.coefficient * q.coefficient
    if phase_power in (2, 3):
        coeff = -coeff
    return PauliTerm(coeff, letters, imag=phase_power % 2 == 1)


def terms_commute(p: PauliTerm, q: PauliTerm) -> bool:
    """Two Pauli strings commute iff ``popcount((x_p & z_q) ^ (z_p & x_q))``
    is even, over their X/Y masks ``x`` and Z/Y masks ``z``."""
    if len(p.letters) != len(q.letters):
        raise DimensionError("term lengths differ")
    (xp, zp), (xq, zq) = p.masks, q.masks
    return ((xp & zq) ^ (zp & xq)).bit_count() % 2 == 0


def letters_at(n_qubits: int, placements: Mapping[int, str]) -> str:
    """Letter string with the given single-qubit letters, identity elsewhere."""
    letters = ["I"] * n_qubits
    for site, letter in placements.items():
        if not 0 <= site < n_qubits:
            raise DimensionError(f"qubit index {site} out of range for n={n_qubits}")
        letters[site] = letter
    return "".join(letters)


class StateVector:
    """Normalized complex amplitudes on the basis of its ``sector`` (the
    full space when None is given): ``sector_amplitudes[i]`` belongs to
    basis state ``sector.indices[i]``.  ``amplitudes`` is the full ``2^n``
    view, for oracles and ``PauliSum.apply_to``; ``on`` is the one
    conversion between sectors."""

    __slots__ = ("sector_amplitudes", "sector")

    def __init__(self, amplitudes: np.ndarray, sector: "Sector | None" = None):
        # Contiguous, so that ``on`` can view it as floats: an eigenvector
        # column handed in is strided.
        amplitudes = np.ascontiguousarray(amplitudes, dtype=complex)
        if amplitudes.ndim != 1:
            raise DimensionError("amplitudes must be a flat array")
        if sector is None:
            n = int(amplitudes.size).bit_length() - 1
            if 2**n != amplitudes.size:
                raise DimensionError(f"amplitude count {amplitudes.size} is not a power of 2")
            sector = Sector(n)
        elif amplitudes.size != sector.dim:
            raise DimensionError(f"expected {sector.dim} sector amplitudes, got {amplitudes.size}")
        self.sector_amplitudes = amplitudes
        self.sector = sector

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

    @property
    def n_qubits(self) -> int:
        return self.sector.n_qubits

    @property
    def amplitudes(self) -> np.ndarray:
        """The full ``2^n`` vector; built on each read for a sector state."""
        if self.sector._indices is None:
            return self.sector_amplitudes
        out = np.zeros(2**self.n_qubits, dtype=complex)
        out[self.sector._indices] = self.sector_amplitudes
        return out

    def on(self, sector: "Sector") -> "StateVector":
        """This state on the basis of ``sector``; raises InvariantViolation if
        a nonzero amplitude would be dropped."""
        if sector.n_qubits != self.n_qubits:
            raise DimensionError("state and sector qubit counts differ")
        if sector == self.sector:
            return self
        full = self.amplitudes
        amps = full if sector._indices is None else full[sector._indices]
        # Nonzero real and imaginary parts, counted through a boolean mask:
        # counting complex (or float) nonzeros directly is five times slower.
        kept, held = (np.count_nonzero(a.view(float) != 0) for a in (amps, self.sector_amplitudes))
        if kept != held:
            raise InvariantViolation("state has amplitude outside the sector")
        return StateVector(amps, sector)

    def norm(self) -> float:
        return float(np.linalg.norm(self.sector_amplitudes))

    def inner(self, other: "StateVector") -> complex:
        """<self|other>."""
        if other.n_qubits != self.n_qubits:
            raise DimensionError("qubit counts differ")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def check_normalized(self) -> None:
        if abs(self.norm() - 1.0) > 1e-10:
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

        Hermiticity of the result is detected from the merged coefficients,
        to rounding: an imaginary part above 1e-14 of the largest is kept.
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
        # The phases are exact, so rounding stays within 45 ulp; a genuine
        # imaginary part, even at 1e-12, is kept.
        herm = all(abs(c.imag) <= 1e-14 * scale for c, _ in pairs)
        return PauliSum(self.n_qubits, pairs, hermitian=herm)

    # -- kernels -------------------------------------------------------

    def apply_to(self, s: StateVector) -> StateVector:
        """Return ``H|s>`` over the full space, ``Sector(n)``."""
        if s.n_qubits != self.n_qubits:
            raise DimensionError("operator and state qubit counts differ")
        return StateVector(Sector(self.n_qubits).apply(self, s.amplitudes))


def _compile(h: PauliSum, indices: np.ndarray):
    """``h`` on the sorted basis ``indices``, built from its terms:
    ``((x, d, gather) per flip mask x, first leaking mask or None)``.

    A rank table over all ``2^n`` states (-1 off the basis) gives a mask's
    gather, ``rank[indices ^ x]``.  Its element on row ``k`` is
    ``sum_t w_t (-1)^popcount(v & z_t)`` at ``v = k ^ x``, read from a table
    over all ``2^n`` states ``v``: split at bit ``low = n // 2``, that table
    is one product ``(S_hi * w) @ S_lo.T`` of two sign tables, real when the
    weights are.  The rows are the basis and the states ``indices ^ x`` off
    it; an element leaks when it exceeds 1e-12 of the largest element on
    those rows, and such a row gathers from itself with weight zero.  The
    constant offset is a diagonal term.  Both tables are dropped on return;
    with real weights they hold about ``12 * 2^n`` bytes.
    """
    masks: dict[int, list] = {0: [(complex(h.constant_offset), 0)]} if h.constant_offset else {}
    for letters, coeff in zip(h._strings, h._coeffs):
        xmask, zmask, ny = _masks(letters)
        masks.setdefault(xmask, []).append((complex(coeff) * 1j**ny, zmask))
    n, dim = h.n_qubits, indices.size
    low = n // 2
    rank = np.full(2**n, -1, dtype=np.int32)
    rank[indices] = np.arange(dim, dtype=np.int32)
    hi_states, lo_states = np.arange(2 ** (n - low))[:, None], np.arange(2**low)[:, None]
    # One buffer for every real table: a fresh 2^n array per mask costs
    # more in page faults than its product.
    real_table = np.empty((hi_states.size, lo_states.size))
    form, escapes, largest = [], [], 0.0
    for xmask, terms in masks.items():
        weights = np.array([weight for weight, _ in terms])
        weights = weights if weights.imag.any() else weights.real
        zmasks = np.array([zmask for _, zmask in terms])
        signs_hi = 1.0 - 2.0 * (np.bitwise_count(hi_states & zmasks >> low) & 1)
        signs_lo = 1.0 - 2.0 * (np.bitwise_count(lo_states & zmasks) & 1)
        out = None if weights.dtype == complex else real_table
        table = np.matmul(signs_hi * weights, signs_lo.T, out=out).ravel()
        targets = indices ^ xmask
        d, gather = table[targets], None
        largest = max(largest, np.abs(d).max(initial=0.0))
        if xmask:
            gather = rank[targets]
            inside = gather >= 0
            if inside.all():
                gather = gather.astype(np.int64)
            else:
                escaped = np.abs(table[indices]).max(where=~inside, initial=0.0)
                largest = max(largest, escaped)
                escapes.append((xmask, escaped))
                d, gather = np.where(inside, d, 0), np.where(inside, gather, np.arange(dim))
        d = d.astype(complex, copy=False)
        for array in (d, gather):
            if array is not None:
                array.flags.writeable = False
        form.append((xmask, d, gather))
    leaks = (xmask for xmask, escaped in escapes if escaped > 1e-12 * largest)
    return tuple(form), next(leaks, None)


def _gather(form, amps: np.ndarray) -> np.ndarray:
    """``sum_x d_x * amps[gather_x]`` over a compiled form (a None gather is
    the diagonal part): the one kernel that applies an operator, to a vector
    or to a ``(dim, k)`` block of columns, whose rows ``d_x`` scales."""
    out = np.zeros_like(amps)
    # The vector loop takes no reshape per mask: it sets small sectors' cost.
    if amps.ndim == 1:
        for _, diagonal, gather in form:
            out += diagonal * (amps if gather is None else amps[gather])
        return out
    for _, diagonal, gather in form:
        out += diagonal[:, None] * (amps if gather is None else amps[gather])
    return out


class Sector:
    """The basis a computation runs on: strictly increasing integer
    computational-basis indices (else DimensionError), or all ``2^n`` states
    for the full space, ``Sector(n)``.

    ``of_charge`` gives the states of one total staggered charge,
    ``n // 2 - popcount(k)`` (``models.basis_charge``), which every lattice
    model here conserves.  Sector amplitudes (a state's, or the arrays the
    operator methods take) are indexed by position in ``indices``; sectors
    with the same basis compare equal.
    """

    __slots__ = ("n_qubits", "_indices", "_key", "_z_values", "_symmetries")

    # Compiled forms per Hamiltonian and sector, kept while ``h`` lives.
    _forms: "weakref.WeakKeyDictionary[PauliSum, dict]" = weakref.WeakKeyDictionary()

    def __init__(self, n_qubits: int, indices: np.ndarray | None = None):
        self.n_qubits = n_qubits
        given = None if indices is None else np.asarray(indices)
        if given is not None and given.size and given.dtype.kind not in "iu":
            # A cast would truncate each value to some other basis state.
            raise DimensionError(f"sector indices must be integers, not {given.dtype}")
        self._indices = None if given is None else given.astype(np.int64)
        idx = self._indices
        if idx is not None and (
            idx.ndim != 1
            or (np.diff(idx) <= 0).any()
            or idx.size and not 0 <= idx[0] <= idx[-1] < 2**n_qubits
        ):
            raise DimensionError(
                f"sector indices must be strictly increasing basis states of {n_qubits} qubits"
            )
        self._key = (n_qubits, None if indices is None else self._indices.tobytes())
        self._z_values = self._symmetries = None

    @classmethod
    def of_charge(cls, n_qubits: int, total_charge: int) -> "Sector":
        weights = np.bitwise_count(np.arange(2**n_qubits))
        return cls(n_qubits, np.flatnonzero(weights == n_qubits // 2 - total_charge))

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

    @property
    def symmetries(self) -> tuple[np.ndarray, ...]:
        """Bit complement and reversal, if they map the sector into itself, as image positions."""
        if self._symmetries is None:
            n, indices = self.n_qubits, self.indices
            reversal = (indices[:, None] >> np.arange(n) & 1) @ (1 << np.arange(n)[::-1])
            found = [(m, np.searchsorted(indices, m)) for m in (indices ^ (2**n - 1), reversal)]
            # An image outside the sector reads another state at its (clipped) position.
            closed = [p for m, p in found if self.dim and (indices.take(p, mode="clip") == m).all()]
            self._symmetries = tuple(closed)
        return self._symmetries

    def __eq__(self, other) -> bool:
        return isinstance(other, Sector) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def compile(self, h: PauliSum):
        """``h`` on the sector: ``(x, d, gather)`` per flip mask ``x``, with
        ``(h psi)[i] = sum_x d[i] psi[gather[i]]`` on sector amplitudes,
        built once per sector while ``h`` lives.

        Raises InvariantViolation if ``h`` maps a sector state outside the
        sector: an element counts when it exceeds 1e-12 of the largest one
        on the rows the sector touches, its states and those they map to.
        The terms are evaluated on all ``2^n`` states through a rank table
        and one sign-table product per mask, which ``_compile`` drops on
        return: beyond the form it keeps, a compile holds those tables,
        about ``12 * 2^n`` bytes (12 MB at 20 qubits), and a few arrays the
        size of the basis.
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

    def matrix(self, h: PauliSum, rows: np.ndarray | None = None, real: bool = False):
        """Dense matrix of ``h`` on the sector, or only its ``rows`` (sector
        positions), filled one flip mask at a time: ``mat[k, gather[rows[k]]]
        = d[rows[k]]``.  ``real`` keeps the real parts, in a float matrix."""
        # Compile before allocating: the compiled arrays of a short-lived
        # ``h`` are then freed below the matrix, so repeated builds reuse
        # the same memory on every run.
        form = self.compile(h)
        rows = np.arange(self.dim) if rows is None else rows
        mat = np.zeros((rows.size, self.dim), dtype=float if real else complex)
        at = np.arange(rows.size)
        # A row a flip mask takes out of the sector gathers from itself with
        # weight zero; the diagonal part is written last, over those zeros.
        for _, diagonal, gather in sorted(form, key=lambda group: group[2] is None):
            values = diagonal[rows]
            mat[at, rows if gather is None else gather[rows]] = values.real if real else values
        return mat

    def _form(self, h: PauliSum):
        """(compiled form, first leaking flip mask or None)."""
        if h.n_qubits != self.n_qubits:
            raise DimensionError("operator and sector qubit counts differ")
        forms = self._forms.setdefault(h, {})
        if self not in forms:
            forms[self] = _compile(h, self.indices)
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
    """``<s|h|s>`` for a Hermitian sum on a normalized state, read in the
    state's sector as ``<s|P h P|s>`` (``P`` its projector): exact for any
    ``h``, since ``s`` has no amplitude outside the sector."""
    if not h.hermitian:
        raise InvariantViolation("expectation requires a Hermitian PauliSum")
    amps = s.sector_amplitudes
    value = complex(np.vdot(amps, _gather(s.sector._form(h)[0], amps)))
    if abs(value.imag) > 1e-10 * max(1.0, abs(value.real)):
        raise InvariantViolation(f"expectation has imaginary residue {value.imag}")
    return value.real


def check_dense(n_qubits: int) -> None:
    """The one dense-size rule: raise ResourceLimitError above
    ``DENSE_QUBIT_CAP``, read at call time."""
    if n_qubits > DENSE_QUBIT_CAP:
        raise ResourceLimitError(
            f"dense operator on {n_qubits} qubits exceeds the cap of {DENSE_QUBIT_CAP}"
        )


def to_dense(h: PauliSum) -> np.ndarray:
    """Dense 2^n x 2^n matrix of the sum: the full-space
    ``Sector.matrix``, ``mat[k, k ^ x] = d_x[k]``."""
    check_dense(h.n_qubits)
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
