"""Independent dense oracles used by the test suite.

These builders deliberately avoid the library's own Kronecker/statevector
code paths: matrices are assembled element by element from bit
decompositions, and fermion operators directly from Fock-space rules.
"""

import numpy as np
import scipy.linalg

SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_term(letters, value=1.0):
    """Dense matrix of a Pauli string, qubit j = bit j of the index."""
    n = len(letters)
    dim = 2**n
    mat = np.zeros((dim, dim), dtype=complex)
    for r in range(dim):
        for c in range(dim):
            v = complex(value)
            for j, letter in enumerate(letters):
                v *= SINGLE[letter][(r >> j) & 1, (c >> j) & 1]
                if v == 0:
                    break
            mat[r, c] = v
    return mat


def apply_string(letters, amps):
    """A Pauli string applied to amplitudes one single-qubit matrix at a time."""
    n = len(letters)
    out = np.asarray(amps, dtype=complex)
    for j, letter in enumerate(letters):
        # Axis 1 of this view is bit j of the basis index.
        view = out.reshape(2 ** (n - j - 1), 2, 2**j)
        out = np.einsum("ab,ibk->iak", SINGLE[letter], view).reshape(-1)
    return out


def dense_sum(pauli_sum):
    """Dense matrix of a PauliSum via the element-wise term builder."""
    dim = 2**pauli_sum.n_qubits
    mat = complex(pauli_sum.constant_offset) * np.eye(dim, dtype=complex)
    for letters, coeff in pauli_sum.items():
        mat += dense_term(letters, coeff)
    return mat


def dense_block(pauli_sum, indices):
    """The block of a PauliSum on the sorted basis ``indices``: each string's
    element on column ``c`` is the product of its letters' 2x2 entries, on
    the row ``c`` with the bits of its X and Y letters flipped."""
    indices = np.asarray(indices)
    block = complex(pauli_sum.constant_offset) * np.eye(indices.size, dtype=complex)
    for letters, coeff in pauli_sum.items():
        rows = indices ^ sum(1 << j for j, c in enumerate(letters) if c in "XY")
        value = np.full(indices.size, complex(coeff))
        for j, letter in enumerate(letters):
            value *= SINGLE[letter][rows >> j & 1, indices >> j & 1]
        pos = np.minimum(np.searchsorted(indices, rows), indices.size - 1)
        inside = indices[pos] == rows
        block[pos[inside], np.flatnonzero(inside)] += value[inside]
    return block


def expm_table(h_block, bra, ket, op_blocks, times):
    """``<bra| e^{iHt} A e^{-iHt} |ket>``, one row per block ``A`` and one
    column per time: both sides propagated by ``scipy.linalg.expm`` of the
    dense block, afresh at every time."""
    out = np.empty((len(op_blocks), len(times)), dtype=complex)
    for col, t in enumerate(times):
        u = scipy.linalg.expm(-1j * t * h_block)
        left, right = u @ bra, u @ ket
        for row, a in enumerate(op_blocks):
            out[row, col] = np.vdot(left, a @ right)
    return out


def dense_exponential_product(generators, angles, amps):
    """``expm(-i angle_k G_k)`` applied to ``amps`` for each PauliSum ``G_k``
    in turn, from the element-wise dense matrices."""
    out = np.asarray(amps, dtype=complex)
    for generator, angle in zip(generators, angles):
        out = scipy.linalg.expm(-1j * angle * dense_sum(generator)) @ out
    return out


def letterwise_commute(a, b):
    """Two letter strings commute iff they differ on an even number of
    positions where both letters are non-identity."""
    clashes = sum(1 for p, q in zip(a, b) if p != "I" and q != "I" and p != q)
    return clashes % 2 == 0


def restricted_form(h, indices):
    """``(form, first leaking mask or None)`` of ``h`` on sorted ``indices``,
    restricted from its full-space form ``Sector(n).compile(h)``: the largest
    element is taken over all ``2^n`` rows."""
    from latfield.pauli import Sector

    groups = Sector(h.n_qubits).compile(h)
    rows = np.arange(indices.size)
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
        form.append((xmask, np.where(inside, diagonal[indices], 0), np.where(inside, pos, rows)))
    return tuple(form), leak


def compile_by_terms(h, indices):
    """``(form, first leaking mask or None)`` of ``h`` on sorted ``indices``,
    one term at a time: each flip mask finds its targets by ``searchsorted``
    and each term adds its signs on the basis rows and on the rows ``indices
    ^ x`` outside it, in storage order after the constant offset."""
    masks = {0: [(complex(h.constant_offset), 0)]} if h.constant_offset else {}
    for letters, coeff in h.items():
        xmask = sum(1 << j for j, c in enumerate(letters) if c in "XY")
        zmask = sum(1 << j for j, c in enumerate(letters) if c in "ZY")
        masks.setdefault(xmask, []).append((coeff * 1j ** letters.count("Y"), zmask))
    dim = indices.size
    form, escapes, largest = [], [], 0.0
    for xmask, terms in masks.items():
        gather = targets = inside = None
        if xmask:
            targets = indices ^ xmask
            gather = np.minimum(np.searchsorted(indices, targets), dim - 1)
            inside = indices[gather] == targets
            inside = None if inside.all() else inside
        rows = indices if inside is None else np.concatenate([indices, targets[~inside]])
        flipped, d = rows ^ xmask, np.zeros(rows.size, dtype=complex)
        for weight, zmask in terms:
            d += weight * (1.0 - 2.0 * (np.bitwise_count(flipped & zmask) & 1))
        largest = max(largest, np.abs(d).max(initial=0.0))
        if inside is not None:
            escapes.append((xmask, np.abs(d[dim:]).max()))
            d, gather = np.where(inside, d[:dim], 0), np.where(inside, gather, np.arange(dim))
        form.append((xmask, d, gather))
    leaks = (xmask for xmask, escaped in escapes if escaped > 1e-12 * largest)
    return tuple(form), next(leaks, None)


def form_matrix(form, dim):
    """Dense matrix of a compiled form, ``mat[i, gather[i]] = d[i]`` with the
    diagonal part written last."""
    mat = np.zeros((dim, dim), dtype=complex)
    rows = np.arange(dim)
    for _, diagonal, gather in sorted(form, key=lambda group: group[2] is None):
        mat[rows, rows if gather is None else gather] = diagonal
    return mat


def fock_annihilation(j, n):
    """Fock-space a_j with |1> = occupied and sign (-1)^(occupied modes < j)."""
    dim = 2**n
    mat = np.zeros((dim, dim), dtype=complex)
    for m in range(dim):
        if m >> j & 1:
            sign = (-1) ** bin(m & ((1 << j) - 1)).count("1")
            mat[m & ~(1 << j), m] = sign
    return mat


def fock_creation(j, n):
    return fock_annihilation(j, n).conj().T


def jw_number(j, n):
    """n_j = a_j^dag a_j = (I - Z_j)/2 on mode ``j`` of ``n``."""
    from latfield.pauli import DimensionError, PauliSum

    if not 0 <= j < n:
        raise DimensionError(f"mode index {j} out of range for {n} modes")
    letters = "I" * j + "Z" + "I" * (n - j - 1)
    return PauliSum(n, [(-0.5, letters)], constant_offset=0.5)


def jw_hopping(i, j, c, n):
    """Hermitian hopping ``c (a_i^dag a_j + a_j^dag a_i)`` from the library's
    Jordan-Wigner ladder operators.

    For adjacent modes this reduces to ``c/2 (X_i X_j + Y_i Y_j)``; farther
    pairs carry the Z string in between.
    """
    from latfield.fermions import jw_annihilation, jw_creation
    from latfield.pauli import PauliSum

    if i == j:
        raise ValueError("hopping needs two distinct modes")
    term = jw_creation(i, n).product(jw_annihilation(j, n))
    both = term + term.adjoint()
    pairs = [(c * w, s) for s, w in both.items()]
    return PauliSum(n, pairs, constant_offset=c * both.constant_offset)


def jw_density_density(i, j, c, n):
    """``c n_i n_j`` expanded into I/Z/ZZ terms."""
    if i == j:
        raise ValueError("density-density needs two distinct modes")
    return c * jw_number(i, n).product(jw_number(j, n))


def build_thirring_fermionic(params):
    """The Thirring model assembled from second-quantized pieces via the
    Jordan-Wigner map: the spin-form builder's oracle.

    The interaction enters as ``g^2 (n_j - 1/2)(n_{j+1} - 1/2)`` and the
    mass as ``m (-1)^(j+1) n_j`` (constant removed), which reproduce the
    spin form exactly.
    """
    from latfield.models import parity
    from latfield.pauli import PauliSum

    n = params.n_sites
    g2 = params.coupling**2
    parts = [jw_hopping(bond - 1, bond, -parity(bond) / 2.0, n) for bond in range(1, n)]
    parts += [-params.mass * parity(site) * jw_number(site - 1, n) for site in range(1, n + 1)]
    for bond in range(1, n):
        parts.append(jw_density_density(bond - 1, bond, g2, n))
        parts.append(-g2 / 2.0 * jw_number(bond - 1, n))
        parts.append(-g2 / 2.0 * jw_number(bond, n))
    ham = sum(parts, PauliSum(n, [], constant_offset=g2 / 4.0 * (n - 1)))
    # Remove the mass constant so even and odd chains alike match the spin form.
    mass_const = params.mass / 2.0 * sum(-parity(j) for j in range(1, n + 1))
    return ham + PauliSum(n, [], constant_offset=-mass_const)


def random_state(n, rng):
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return v / np.linalg.norm(v)


def superposition_ensemble_value(ensemble, h1, observable, t):
    """Tr(O rho(t)) / Tr rho for a ket/bra ensemble, one pair at a time the
    way a quantum processor measures it: each basis ket is evolved by
    ``expm(-i H1 t)``; a diagonal pair is one expectation, and an
    off-diagonal pair's cross element ``<b(t)|O|a(t)>`` comes from the four
    superposition states (|a> +- |b>)/sqrt2 and (|a> +- i|b>)/sqrt2.  Each
    entry adds Re(chi * value), in storage order."""
    evolved = scipy.linalg.expm(-1j * t * dense_sum(h1))
    obs = dense_sum(observable)

    def expect(vec):
        # einsum's own loop, not BLAS: thousands of small products are slow
        # when BLAS runs threaded.
        return np.einsum("i,ij,j->", vec.conj(), obs, vec).real

    total = 0.0
    sqrt2 = np.sqrt(2.0)
    for chi, a, b in ensemble.entries:
        ka = evolved[:, a]
        if a == b:
            value = complex(expect(ka))
        else:
            kb = evolved[:, b]
            e_plus = expect((ka + kb) / sqrt2)
            e_minus = expect((ka - kb) / sqrt2)
            e_iplus = expect((ka + 1j * kb) / sqrt2)
            e_iminus = expect((ka - 1j * kb) / sqrt2)
            value = (e_plus - e_minus) / 2.0 + 1j * (e_iplus - e_iminus) / 2.0
        total += (chi * value).real
    return total / ensemble.trace_estimate


def product_schwinger(params):
    """The Schwinger Hamiltonian with every ``L_j^2`` expanded through
    ``PauliSum.product``, term by term: the closed-form builder's oracle."""
    from latfield.models import _hopping_pairs, parity
    from latfield.pauli import PauliSum, letters_at

    n = params.n_sites
    a = params.spacing
    pairs = []
    for bond in range(1, n):
        pairs.extend(_hopping_pairs(n, bond, 1.0 / (4.0 * a)))
    for site in range(1, n + 1):
        pairs.append((params.mass / 2.0 * parity(site), letters_at(n, {site - 1: "Z"})))
    ham = PauliSum(n, pairs)
    electric_scale = params.coupling**2 * a / 2.0
    if electric_scale != 0.0:
        for bond in range(1, n):
            # L on the bond right of ``bond`` (1-based), as an I/Z sum.
            flux_pairs = [(0.5, letters_at(n, {site - 1: "Z"})) for site in range(1, bond + 1)]
            offset = params.boundary_field
            for site in range(1, bond + 1):
                offset += parity(site) / 2.0
            flux = PauliSum(n, flux_pairs, constant_offset=offset)
            ham = ham + electric_scale * flux.product(flux)
    return ham


def thirring_mass_sweep(params):
    """``h(s)``, s from 0 to 1: the Thirring chain with its mass moved
    linearly from the trivial large-mass limit, 25, to ``params.mass``."""
    from latfield.models import ThirringParams, build_thirring

    def path(s):
        mass = (1.0 - s) * 25.0 + s * params.mass
        return build_thirring(ThirringParams(params.n_sites, mass, params.coupling))

    return path


def adiabatic_sector_state(h_path, total_charge, total_time=60.0, steps=240):
    """The ground state of one total-charge sector followed along the sweep
    ``h_path(s)``: the dense sector block's ground state at s = 0, then
    ``expm(-i dt H)`` of the block at the midpoint of each of ``steps``
    intervals.  Each Pauli string's block is built once, by ``apply_string``
    on the sector's basis columns.  Returns a StateVector on the sector."""
    from latfield.pauli import Sector, StateVector

    n = h_path(0.0).n_qubits
    idx = np.flatnonzero(np.bitwise_count(np.arange(2**n)) == n // 2 - total_charge)
    columns = np.eye(2**n)[:, idx]
    strings = {}

    def block(s):
        h = h_path(s)
        mat = complex(h.constant_offset) * np.eye(idx.size, dtype=complex)
        for letters, coeff in h.items():
            if letters not in strings:
                image = np.stack([apply_string(letters, column) for column in columns.T], axis=1)
                strings[letters] = image[idx]
            mat += coeff * strings[letters]
        return mat

    amps = np.linalg.eigh(block(0.0))[1][:, 0].astype(complex)
    for k in range(steps):
        amps = scipy.linalg.expm(-1j * (total_time / steps) * block((k + 0.5) / steps)) @ amps
    return StateVector(amps, Sector(n, idx))


def local_z(j, delta, n_sites):
    """Single-qubit rotation generator (delta/2) Z_j: one Z layer angle's
    generator, for dense products of the ansatz."""
    from latfield.pauli import PauliSum, letters_at

    return PauliSum(n_sites, [(delta / 2.0, letters_at(n_sites, {j: "Z"}))])


def free_fermion_density(n_sites, mass, occupied, times):
    """``<n_y(t)>`` (rows y, columns t) on the coupling-0 Thirring chain from
    the basis state whose set bits are ``occupied``, by free fermions.

    The open chain's nearest-neighbour XX + YY bonds carry no Jordan-Wigner
    string (Lieb, Schultz & Mattis, Ann. Phys. 16, 407 (1961)), so a set bit
    is a fermion under the n x n single-particle matrix ``h_sp``:
    ``(s/4)(XX + YY)`` hops with ``s/2``, and ``(m/2)(-1)^(j+1) Z_j`` on
    1-based site j is ``-m (-1)^(j+1) n_j`` up to a constant.  With
    ``U = expm(-i h_sp t)``, ``<n_y(t)> = sum_{k occupied} |U_yk|^2``.
    """
    h_sp = np.zeros((n_sites, n_sites))
    for j in range(n_sites):  # 0-based; the model's signs use 1-based j + 1
        sign = 1.0 if j % 2 else -1.0  # (-1)^(j+1)
        h_sp[j, j] = -mass * sign
        if j + 1 < n_sites:
            h_sp[j, j + 1] = h_sp[j + 1, j] = -sign / 2.0
    occupied = list(occupied)
    density = np.empty((n_sites, len(times)))
    for col, t in enumerate(times):
        u = scipy.linalg.expm(-1j * t * h_sp)
        density[:, col] = (np.abs(u[:, occupied]) ** 2).sum(axis=1)
    return density
