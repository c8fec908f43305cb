"""Real-time propagation.

First-order product formula: the Hamiltonian's terms are grouped greedily
into mutually commuting sets, and one sweep applies the exact exponential
of each group, ``exp(-i dt H_g)``, in group order.  Within a group every
factor commutes, so a group's exponential is built from its flip-mask
parts (one phase vector for the diagonal part, one rotation per flip
mask) and only the group order shapes the Trotter error.  ``propagate`` is
the exact reference, a dense eigendecomposition (its sector block split by
the bit complement and reversal symmetries it has, real parts kept real)
under the dense cap and Lanczos over it; the error diagnostic is the l2
distance between the two paths.  Sweeps run in the initial state's sector,
which each commuting group must map into itself, and yield states there.

Plans are immutable and shareable; one evolution mutates one state under a
single-writer contract, and independent trajectories (e.g. points of a
parameter scan) parallelize at the task level with no shared mutable state.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .pauli import (
    CommutingExponential,
    DimensionError,
    InvariantViolation,
    PauliSum,
    PauliTerm,
    ResourceLimitError,
    Sector,
    StateVector,
    check_dense,
    terms_commute,
)


@dataclass(frozen=True)
class EvolutionPlan:
    """A Trotterized evolution of a Hermitian Hamiltonian: total time, sweep
    count, and ``grouping``, the greedy partition of ``hamiltonian.terms``
    into commuting-within-group index sets, built here and only here."""

    hamiltonian: PauliSum
    total_time: float
    steps: int
    grouping: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self) -> None:
        if not self.hamiltonian.hermitian:
            raise InvariantViolation("evolution requires a Hermitian Hamiltonian")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        object.__setattr__(self, "grouping", greedy_commuting_groups(self.hamiltonian.terms))


def greedy_commuting_groups(terms: tuple[PauliTerm, ...]) -> tuple[tuple[int, ...], ...]:
    """First-fit partition: each term joins the earliest group it commutes
    with entirely.  On the lattice models this reproduces the even/odd bond
    split plus one diagonal group."""
    groups: list[list[int]] = []
    for i, term in enumerate(terms):
        for group in groups:
            if all(terms_commute(term, terms[j]) for j in group):
                group.append(i)
                break
        else:
            groups.append([i])
    return tuple(tuple(g) for g in groups)


def make_plan(h: PauliSum, total_time: float, steps: int) -> EvolutionPlan:
    return EvolutionPlan(h, float(total_time), int(steps))


def trotter_states(plan: EvolutionPlan, s0: StateVector) -> Iterator[StateVector]:
    """Yield the state after each sweep (``plan.steps`` items), swept on the
    amplitudes of ``s0``'s sector and in it.  Raises InvariantViolation,
    at the first sweep, if a group maps the sector out of itself."""
    if s0.n_qubits != plan.hamiltonian.n_qubits:
        raise DimensionError("state and Hamiltonian qubit counts differ")
    n, sector, terms = plan.hamiltonian.n_qubits, s0.sector, plan.hamiltonian.terms
    dt = plan.total_time / plan.steps
    amps = s0.sector_amplitudes
    factors = []
    for group in plan.grouping:
        part = PauliSum(n, [(terms[i].coefficient, terms[i].letters) for i in group])
        factors.append(CommutingExponential(part, dt, sector))
    # The identity component commutes with everything; its phase is exact.
    offset_phase = np.exp(-1j * complex(plan.hamiltonian.constant_offset).real * dt)
    for _ in range(plan.steps):
        for factor in factors:
            amps = factor.apply(amps)
        # A new array every sweep: a yielded state is never overwritten.
        amps = offset_phase * amps
        yield StateVector(amps, sector)


def trotter_evolve(plan: EvolutionPlan, s0: StateVector) -> StateVector:
    """First-order Trotter evolution by ``plan.total_time``: the last of
    ``trotter_states``.  Raises InvariantViolation if the norm drifts by
    more than 1e-10."""
    out = s0
    for out in trotter_states(plan, s0):
        pass
    drift = abs(out.norm() - s0.norm())
    if drift > 1e-10:
        raise InvariantViolation(f"norm drifted by {drift} during evolution")
    return out


class SpectralDecomposition:
    """Eigendecomposition of a Hermitian PauliSum on one sector (the full
    space by default) that ``h`` maps into itself, cached for reuse across
    many evolution times on the same operator; ``eigenvalues`` ascend.

    Bit complement and reversal (``Sector.symmetries``) that leave the block
    unchanged to 1e-14 of its largest entry split it, one block per group
    character; a real ``V_b`` stays real, so the 12-site XY generator's four
    blocks stay in cache.  The test and the blocks read the compiled form,
    each block its orbit representatives' rows of ``h``: the build peaks near
    ``8 (sum_b d_b^2 + dim max_b d_b)`` bytes, with no ``dim x dim`` block
    (5.1 MB against 13.7 MB at 12 sites).  Unsplit, the block is filled real
    when ``h`` is, and ``eigenvectors`` is the one array kept."""

    # Per Hamiltonian, alive as long as it is: {sector: decomposition}.
    _cache: "weakref.WeakKeyDictionary[PauliSum, dict]" = weakref.WeakKeyDictionary()

    def __init__(self, h: PauliSum, sector: Sector | None = None):
        self.sector = sector or Sector(h.n_qubits)
        form = self.sector.compile(h)
        # One test for every block: a real form gives real blocks and real V_b.
        self._real = not any(diagonal.imag.any() for _, diagonal, _ in form)
        basis = _symmetry_basis(form, self.sector)
        self._blocks = None if basis is None else []
        if basis is None:
            # The block is freed before the cast: the peak is the block with
            # the eigenvectors, or the eigenvectors with their complex copy.
            self.eigenvalues, vectors = np.linalg.eigh(self.sector.matrix(h, real=self._real))
            self._vectors = vectors.astype(complex, copy=False)
            return
        self._into, self._out_of, edges = basis
        values = []
        for start, stop in zip(edges[:-1], edges[1:]):
            # H commutes with the character's projector P: <u_a|H|u_b> is
            # <r_a|H P|r_b> over the norms, r_a in row 0 of ``index``, read
            # from the representatives' rows of H alone.
            index, weight = (table[:, start:stop] for table in self._into)
            rows = self.sector.matrix(h, index[0], self._real)
            cols = sum(rows[:, i] * w for i, w in zip(index, weight))
            values.append(np.linalg.eigh(len(index) * weight[0][:, None] * cols))
            self._blocks.append((start, stop, values[-1][1]))
        values = np.concatenate([value for value, _ in values])
        self._order = np.argsort(values, kind="stable")
        self._rank = np.argsort(self._order)
        self.eigenvalues = values[self._order]

    @property
    def eigenvectors(self) -> np.ndarray:
        """Columns ordered as ``eigenvalues``; split, the identity expanded per
        use, 256 columns at a time: ``expand`` gathers ``|G|`` copies of its block."""
        if self._blocks is None:
            return self._vectors
        dim = self.eigenvalues.size
        columns = (np.eye(dim, min(256, dim - k), -k, dtype=complex) for k in range(0, dim, 256))
        return np.hstack([self.expand(block) for block in columns])

    def eigenvector(self, rank: int) -> np.ndarray:
        """Column ``rank`` of ``eigenvectors``; split, one unit vector expanded."""
        if self._blocks is None:
            return self._vectors[:, rank]
        return self.expand(np.eye(1, self.eigenvalues.size, rank, dtype=complex)[0])

    @classmethod
    def for_hamiltonian(
        cls, h: PauliSum, sector: Sector | None = None
    ) -> "SpectralDecomposition":
        """The decomposition of ``h`` on ``sector``, cached for as long as
        ``h`` lives.  ``check_dense`` runs first, so above the cap even a
        cached decomposition is refused with ResourceLimitError."""
        check_dense(h.n_qubits)
        sector = sector or Sector(h.n_qubits)
        per_sector = cls._cache.setdefault(h, {})
        if sector not in per_sector:
            per_sector[sector] = cls(h, sector)
        return per_sector[sector]

    def coordinates(self, amps: np.ndarray) -> np.ndarray:
        """``V^H a``, ordered as ``eigenvalues``; unsplit, ``conj(conj(a) V)`` on the one ``V``."""
        if self._blocks is None:
            return np.conj(np.conj(amps) @ self._vectors)
        adapted = _combine(self._into, amps.astype(complex, copy=False))
        return self._products(adapted, adjoint=True)[self._order]

    def expand(self, coords: np.ndarray) -> np.ndarray:
        """``V c``: the sector amplitudes of eigenbasis coordinates ``c``, a
        vector or a ``(dim, k)`` block of columns."""
        if self._blocks is None:
            return self._vectors @ coords
        adapted = self._products(coords[self._rank].astype(complex, copy=False), adjoint=False)
        return _combine(self._out_of, adapted)

    def _products(self, x: np.ndarray, adjoint: bool) -> np.ndarray:
        """``V_b^H x_b`` (or ``V_b x_b``) per block, ``x`` a vector or a
        ``(dim, k)`` block; a real ``V_b`` on ``x_b`` as (d_b, 2k) reals."""
        out = np.empty_like(x)
        pairs, out_pairs = x.view(float).reshape(len(x), -1), out.view(float).reshape(len(x), -1)
        for start, stop, v in self._blocks:
            if self._real:
                np.matmul(v.T if adjoint else v, pairs[start:stop], out=out_pairs[start:stop])
            else:
                out[start:stop] = (v.conj().T if adjoint else v) @ x[start:stop]
        return out

    def evolve_amplitudes(self, t: float | np.ndarray, amps: np.ndarray) -> np.ndarray:
        """exp(-i H t) on amplitudes in the sector's coordinates, for a time,
        or a 1-D array of times with one column per time: one ``coordinates``
        and one ``expand`` of the ``(dim, T)`` phase block."""
        times = np.asarray(t, dtype=float)
        phases = np.exp(-1j * np.multiply.outer(self.eigenvalues, times))
        coords = self.coordinates(amps)
        phases *= coords if times.ndim == 0 else coords[:, None]
        return self.expand(phases)

    def evolve(self, t: float, s: StateVector) -> StateVector:
        """``exp(-i H t) s`` in the decomposition's sector."""
        amps = s.on(self.sector).sector_amplitudes
        return StateVector(self.evolve_amplitudes(t, amps), self.sector)


def _symmetry_basis(form, sector: Sector):
    """None, or ``(into, out_of, edges)``: the real basis splitting the operator
    compiled as ``form`` on ``sector`` by the ``sector.symmetries`` (image
    positions) that leave it unchanged, orbit representatives projected on each
    group character ``(-1)^popcount(c & j)``, one block between ``edges``; an
    ``(index, weight)`` table, ``|G|`` rows, gives ``sum_j weight[j] x[index[j]]``.

    Invariance is decided on the form, mask by mask.  Complement and reversal
    are bit maps, so they take flip mask ``x`` to one mask ``y`` and the entry
    ``d_x[i]`` to ``d_y[p[i]]``: these are the dense block's entries and its
    image's, with no ``dim x dim`` array."""
    # Rounding level, 45 ulp of the largest entry: an invariant block moves by
    # up to 9.3 ulp (14-site Schwinger under complement and reversal together).
    # A split drops what a symmetry changes; a missed one only costs time.
    tolerance = 1e-14 * max((np.abs(d).max(initial=0.0) for _, d, _ in form), default=0.0)
    indices, dim = sector.indices, sector.dim
    diagonals, positions = {x: d for x, d, _ in form}, np.arange(dim)

    def change(p, d, gather) -> float:
        if gather is None:
            return np.abs(d[p] - d).max(initial=0.0)
        # A row the mask takes out of the sector gathers from itself with
        # weight zero, and so does its image: the sector is closed under p.
        i = np.argmax(gather != positions)
        if gather[i] == i:
            return 0.0
        image = diagonals.get(indices[p[i]] ^ indices[p[gather[i]]])
        return np.abs(d if image is None else image[p] - d).max(initial=0.0)

    # The diagonal first, so a rejection is often cheap.
    groups, words = sorted(form, key=lambda group: group[2] is not None), [positions]
    for p in sector.symmetries:
        # A mask whose image is absent is compared with zero; every symmetry
        # here is its own inverse, so that covers the image's side too.
        if all(change(p, d, gather) <= tolerance for _, d, gather in groups):
            words += [p[w] for w in words]
    if len(words) == 1:
        return None
    images = np.stack(words, axis=1)
    size = images.shape[1]
    characters = 1.0 - 2.0 * (np.bitwise_count(np.arange(size)[:, None] & np.arange(size)) & 1)
    reps = np.flatnonzero(images.min(axis=1) == np.arange(dim))
    fixed = images[reps] == reps[:, None]
    stabilizer = fixed.sum(axis=1)
    # A projection is zero unless the character is trivial on the stabilizer.
    c, r = np.nonzero((fixed @ characters).T == stabilizer)
    index, weight = images[reps[r]], characters[c] / np.sqrt(size * stabilizer[r])[:, None]
    # Every state is in ``index`` size times; summed, its weights invert.
    back = np.argsort(index, axis=None, kind="stable").reshape(dim, size)
    edges = np.flatnonzero(np.diff(c, prepend=-1, append=size))
    # Stored as (|G|, dim): a term of the sum is one contiguous row.
    rows = [np.ascontiguousarray(t.T) for t in (index, weight, back // size, weight.ravel()[back])]
    return tuple(rows[:2]), tuple(rows[2:]), edges


def _combine(table, x: np.ndarray) -> np.ndarray:
    """``sum_j weight[j] x[index[j]]`` for an ``(index, weight)`` table of
    ``_symmetry_basis``, ``x`` a vector or a ``(dim, k)`` block: one gather, and
    a sum over the table's rows in order."""
    index, weight = table
    gathered = x[index]
    gathered *= weight.reshape(weight.shape + (1,) * (x.ndim - 1))
    return gathered.sum(axis=0)


def propagate(h: PauliSum, t: float | np.ndarray, amps: np.ndarray, sector: Sector) -> np.ndarray:
    """``exp(-i h t)`` on ``sector``'s amplitudes, exact to rounding, for a time
    ``t`` or a 1-D array of times, one column per time in a ``(dim, T)`` block
    of ``16 T dim`` bytes.  Under the dense rule, ``SpectralDecomposition``
    evolves every time at once, each phase ``exp(-i E t)`` from its own time;
    over it, short-iterative Lanczos steps through the times in order, from 0.
    Raises InvariantViolation for a non-Hermitian ``h``."""
    if not h.hermitian:
        raise InvariantViolation("propagation requires a Hermitian PauliSum")
    try:
        return SpectralDecomposition.for_hamiltonian(h, sector).evolve_amplitudes(t, amps)
    except ResourceLimitError:
        pass
    times = np.asarray(t, dtype=float)
    if times.ndim == 0:
        return _lanczos(h, float(times), amps, sector)
    out = np.empty((sector.dim, times.size), dtype=complex)
    for col, (previous, time) in enumerate(zip([0.0, *times[:-1]], times)):
        amps = out[:, col] = _lanczos(h, time - previous, amps, sector)
    return out


def _lanczos(h: PauliSum, t: float, amps: np.ndarray, sector: Sector) -> np.ndarray:
    """``exp(-i h t) amps`` by short-iterative Lanczos on ``sector.apply``
    (Park & Light, J. Chem. Phys. 85, 5870 (1986)), fully reorthogonalised,
    on up to 40 sector vectors (640 bytes a state: 670 MB on 20 qubits' full
    space).  A step ends once its error estimate is under 1e-13 |amps|; at 40
    vectors it is halved.  A vector whose norm underflows to 0 (entries below
    about 1e-162) is returned as it is, as the zero vector is."""
    out = np.array(amps, dtype=complex)
    basis = np.empty((min(40, sector.dim), sector.dim), dtype=complex)
    remaining = step = t if np.linalg.norm(out) else 0.0
    while remaining:
        step, norm = remaining if abs(step) >= abs(remaining) else step, np.linalg.norm(out)
        basis[0], alpha, beta = out / norm, [], []
        for m in range(1, len(basis) + 1):
            w = sector.apply(h, basis[m - 1])
            alpha.append(np.vdot(basis[m - 1], w).real)
            for _ in range(2):
                w -= (basis[:m].conj() @ w) @ basis[:m]
            beta.append(np.linalg.norm(w) if m < sector.dim else 0.0)
            # eigh reads the lower triangle: the tridiagonal's subdiagonal.
            values, vectors = np.linalg.eigh(np.diag(alpha) + np.diag(beta[:-1], -1))
            c = norm * vectors @ (np.exp(-1j * step * values) * vectors[0])
            # Error estimate: the smaller of beta_m |step| |amps|, a bound that
            # is 0 at a breakdown, and beta_{m-1} |c_{m-1}| + beta_m |c_m|, as
            # c_m alone can vanish at an isolated step.
            while min(beta[-1] * abs(step) * norm, beta[-2:] @ np.abs(c[-2:])) >= 1e-13 * norm:
                if m < len(basis):
                    break
                step /= 2
                c = norm * vectors @ (np.exp(-1j * step * values) * vectors[0])
            else:
                break
            basis[m] = w / beta[-1]
        out = c @ basis[:m]
        remaining -= step
    return out


def exact_evolve(h: PauliSum, t: float, s0: StateVector) -> StateVector:
    """exp(-i H t)|s0> on ``s0``'s sector, which ``h`` must map into itself,
    through ``propagate``: dense under the cap, Lanczos over it."""
    return StateVector(propagate(h, t, s0.sector_amplitudes, s0.sector), s0.sector)


def trotter_error(plan: EvolutionPlan, s0: StateVector) -> float:
    """l2 distance between the Trotter and exact propagations of ``s0``."""
    approx = trotter_evolve(plan, s0)
    exact = exact_evolve(plan.hamiltonian, plan.total_time, s0)
    return float(np.linalg.norm(approx.sector_amplitudes - exact.sector_amplitudes))
