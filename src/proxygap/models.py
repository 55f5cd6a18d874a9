"""Spin-chain Hamiltonians, Dicke / Bell-basis states, magnetization sectors.

Convention: sigma_z |0> = +|0>, so |1> is the excited state and a basis
index's popcount is its excitation number m (total magnetization n - 2m).
Site 0 is the most significant bit of the basis index.

Hamiltonians are assembled as sparse `CooMatrix` triplets from bit
arithmetic (a bond term touches at most one off-diagonal per row), with
numpy alone, and stay sparse: a witness-only scan splits them into symmetry
blocks, and a PPT problem into magnetization sectors, without forming the
2^n x 2^n matrix.  The splits read any sparse operand through its
`tocoo()`, scipy's sparse matrices included; `sector_split_sparse` returns
the plain list of sector blocks.  Only a dense path densifies an operator,
behind the memory guard and in the operator's own dtype (float64 for these
real Hamiltonians): an operator that does not conserve magnetization, or a
full diagonalization.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .linalg import (CooMatrix, HermitianOperator, LinalgError,
                     SpectralDecomposition, as_coo, check_dense_size)

# relative tolerance, against the largest entry (or 1), of the symmetry tests
# and splits: a conserved charge, the ring translation, a real block
SYMMETRY_TOL = 1e-10
DEGENERACY_RTOL = 1e-9  # `energy_extremes`' ground-level width, relative


@dataclass(frozen=True)
class HeisenbergParams:
    n: int
    jx: float = 1.0
    jy: float = 1.0
    jz: float = 1.0
    b: float = 0.0
    periodic: bool = True

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least 2 sites")


@dataclass(frozen=True)
class XYParams:
    n: int
    r: float
    h: float
    periodic: bool = True

    def __post_init__(self):
        if not 0.0 <= self.r <= 1.0:
            raise ValueError("anisotropy r must lie in [0, 1]")


def _bonds(n: int, periodic: bool):
    bonds = [(i, i + 1) for i in range(n - 1)]
    if periodic:
        bonds.append((n - 1, 0))
    return bonds


def _bit(idx: np.ndarray, site: int, n: int) -> np.ndarray:
    return ((idx >> (n - 1 - site)) & 1).astype(np.int64)


def heisenberg_sparse(p: HeisenbergParams) -> CooMatrix:
    """H = -sum_bonds (Jx XX + Jy YY + Jz ZZ) + B sum_i Z as a real
    `CooMatrix`.

    J < 0 is antiferromagnetic.  A periodic 2-site ring counts its single
    bond twice (the literal formula).
    """
    n = p.n
    d = 2 ** n
    idx = np.arange(d, dtype=np.int64)
    diag = np.zeros(d)
    rows, cols, vals = [], [], []
    for (i, j) in _bonds(n, p.periodic):
        bi = _bit(idx, i, n)
        bj = _bit(idx, j, n)
        si = 1 - 2 * bi
        sj = 1 - 2 * bj
        diag -= p.jz * (si * sj).astype(float)
        # flipping both bits: XX gives 1; YY gives +1 (bits differ) or -1
        flipped = idx ^ ((1 << (n - 1 - i)) | (1 << (n - 1 - j)))
        amp = np.where(bi != bj, -(p.jx + p.jy), -(p.jx - p.jy))
        nz = amp != 0.0
        rows.append(flipped[nz])
        cols.append(idx[nz])
        vals.append(amp[nz].astype(float))
    if p.b != 0.0:
        sz = (n - 2 * popcounts(n)).astype(float)
        diag += p.b * sz
    rows.append(idx)
    cols.append(idx)
    vals.append(diag)
    return CooMatrix(np.concatenate(rows), np.concatenate(cols),
                     np.concatenate(vals), (d, d))


def heisenberg_chain(p: HeisenbergParams) -> HermitianOperator:
    """`heisenberg_sparse` as a sparse qubit operator; its `entries`
    densify it behind the memory guard."""
    return HermitianOperator(heisenberg_sparse(p), (2,) * p.n)


def xy_params_as_heisenberg(p: XYParams) -> HeisenbergParams:
    # -sum((1+r)/2 XX + (1-r)/2 YY + h Z) is Heisenberg with B = -h
    return HeisenbergParams(n=p.n, jx=0.5 * (1.0 + p.r), jy=0.5 * (1.0 - p.r),
                            jz=0.0, b=-p.h, periodic=p.periodic)


def xy_chain(p: XYParams) -> HermitianOperator:
    """H = -sum_i ((1+r)/2 XX + (1-r)/2 YY + h Z).  r=1 Ising, r=0 XX."""
    return heisenberg_chain(xy_params_as_heisenberg(p))


def bell_staircase(n: int) -> SpectralDecomposition:
    """Staircase Hamiltonian sum_k k |Psi_k><Psi_k| over a generalized
    Bell basis of n qubits (d = 2^(n/2)); eigenvalue j has eigenvector
    with shift k = j mod d and phase l = j // d, so the first d
    eigenvectors are the zero-phase maximally entangled states."""
    if n % 2 != 0:
        raise ValueError("qubit count must be even")
    check_dense_size(2 ** n)
    d = 2 ** (n // 2)
    vecs = np.zeros((d * d, d * d), dtype=complex)
    omega = np.exp(2j * np.pi / d)
    amp = 1.0 / np.sqrt(d)
    for l in range(d):
        for k in range(d):
            j = l * d + k
            for i in range(d):
                vecs[i * d + (i + k) % d, j] = amp * omega ** ((i * l) % d)
    return SpectralDecomposition(np.arange(d * d, dtype=float), vecs, (2,) * n)


def dicke_state(n: int, m: int) -> np.ndarray:
    """Uniform superposition of all n-qubit states with m excitations."""
    if not 0 <= m <= n:
        raise ValueError("excitation number out of range")
    vec = np.zeros(2 ** n, dtype=complex)
    idx = excitation_sector_indices(n, m)
    vec[idx] = 1.0 / np.sqrt(comb(n, m))
    return vec


def excitation_sector_indices(n: int, m: int) -> np.ndarray:
    """Basis indices with popcount m, ascending."""
    return np.nonzero(popcounts(n) == m)[0]


def popcounts(n: int) -> np.ndarray:
    idx = np.arange(2 ** n, dtype=np.int64)
    counts = np.zeros(2 ** n, dtype=np.int64)
    for bit in range(n):
        counts += (idx >> bit) & 1
    return counts


def conserves_magnetization(op, n: int) -> bool:
    """Whether no entry of the sparse qubit operator beyond SYMMETRY_TOL of
    its largest (or of 1) links two excitation numbers."""
    c = as_coo(op)
    counts = popcounts(n)
    scale = max(np.abs(c.data).max(initial=0.0), 1.0)
    cross = counts[c.row] != counts[c.col]
    return bool(np.abs(c.data[cross]).max(initial=0.0)
                <= SYMMETRY_TOL * scale)


def _dense_block(c: CooMatrix, idx: np.ndarray) -> np.ndarray:
    """The dense block c[idx][:, idx], for ascending basis indices idx."""
    pos = np.full(c.shape[0], -1)
    pos[idx] = np.arange(idx.size)
    rows, cols = pos[c.row], pos[c.col]
    keep = (rows >= 0) & (cols >= 0)
    block = np.zeros((idx.size, idx.size), dtype=c.data.dtype)
    block[rows[keep], cols[keep]] = c.data[keep]
    return block


def sector_split_sparse(h, n: int) -> list:
    """Split a sparse qubit operator conserving total sigma_z into its
    dense excitation-sector blocks, block m on the basis states
    `excitation_sector_indices(n, m)`, for m = 0 .. n."""
    if not conserves_magnetization(h, n):
        raise LinalgError("operator does not commute with total sigma_z")
    c = as_coo(h)
    counts = popcounts(n)
    scale = max(np.abs(c.data).max(initial=0.0), 1.0)
    blocks = []
    for mm in range(n + 1):
        block = _dense_block(c, np.nonzero(counts == mm)[0])
        if (np.iscomplexobj(block)
                and np.abs(block.imag).max() < SYMMETRY_TOL * scale):
            block = block.real.copy()
        blocks.append(block)
    return blocks


def translation_table(n: int) -> np.ndarray:
    """Index permutation of the one-site translation T (site i -> i+1)."""
    idx = np.arange(2 ** n, dtype=np.int64)
    return (idx >> 1) | ((idx & 1) << (n - 1))


def reflection_table(n: int) -> np.ndarray:
    """Index permutation of the site reflection R (site i -> n-1-i): each
    basis index with its n bits reversed."""
    idx = np.arange(2 ** n, dtype=np.int64)
    out = np.zeros_like(idx)
    for site in range(n):
        out |= ((idx >> site) & 1) << (n - 1 - site)
    return out


def commutes_with(op, perm: np.ndarray) -> bool:
    """Whether the sparse operator commutes with the basis permutation
    |x> -> |perm[x]>, to SYMMETRY_TOL of its largest entry (or of 1)."""
    c = as_coo(op)
    # P H P^-1 - H, entry by entry
    diff = CooMatrix(np.r_[perm[c.row], c.row], np.r_[perm[c.col], c.col],
                     np.r_[c.data, -c.data], c.shape)
    scale = max(np.abs(c.data).max(initial=0.0), 1.0)
    return bool(np.abs(diff.data).max(initial=0.0)
                <= SYMMETRY_TOL * scale)


def is_translation_invariant(h, n: int) -> bool:
    """Whether the sparse operator commutes with the ring translation."""
    return commutes_with(h, translation_table(n))


def momentum_sector_split(ops, n: int):
    """Joint magnetization + momentum block decomposition of qubit
    operators that each conserve total sigma_z and commute with the ring
    translation T.

    `ops` is a list of sparse matrices.  Returns (blocks, mult): blocks is
    a list over (sector, momentum) of per-op dense blocks, and mult[i] the
    number of momentum blocks that blocks[i] stands for.  The momentum
    states are |k,r> = n^(-1/2) sum_j w^(-kj) T^j|r> over the orbit
    representatives r.  When no op has an imaginary entry, block n - k is
    the complex conjugate of block k, so only k <= n/2 is built and k,
    n - k count twice.  When besides every op commutes with the site
    reflection R, RK (K the complex conjugation) maps momentum k to k, and
    each block is real symmetric float64 in the RK-fixed basis of
    `_rk_entries` (Sandvik, arXiv:1101.3281 sec. 4); otherwise the blocks
    are complex128 in the basis |k,r>.  Requires every translation orbit
    to have full period n (always true for prime n away from the uniform
    states); raises LinalgError otherwise.
    """
    d = 2 ** n
    perm = translation_table(n)
    idx = np.arange(d, dtype=np.int64)
    orbit = np.empty((n, d), dtype=np.int64)
    orbit[0] = idx
    for t in range(1, n):
        orbit[t] = perm[orbit[t - 1]]
    rep = orbit.min(axis=0)
    # s = T^(n - argmin) |rep>, i.e. shift j_s = (n - t0) mod n
    t0 = orbit.argmin(axis=0)
    shift = (n - t0) % n
    counts = popcounts(n)
    omega = np.exp(2j * np.pi / n)
    coos = [as_coo(o) for o in ops]
    if not all(conserves_magnetization(c, n) for c in coos):
        raise LinalgError("operator does not commute with total sigma_z")
    op_scale = max(max(np.abs(c.data).max(initial=0.0) for c in coos), 1.0)
    real = all(not np.iscomplexobj(c.data) or not c.data.imag.any()
               for c in coos)
    refl = reflection_table(n)
    rk = real and all(commutes_with(c, refl) for c in coos)
    turns = _turns(n)
    momenta = [k for k in range(n) if not real or 2 * k <= n]
    # each op's entries in the columns of orbit representatives; those that
    # add up to one block element share their column, and row-major order
    # sums them down it
    in_rep_col = []
    for c in coos:
        at = np.flatnonzero(rep[c.col] == c.col)
        in_rep_col.append((c.row[at], c.col[at],
                           np.asarray(c.data[at], dtype=complex)))
    pos = np.empty(d, dtype=np.int64)  # a representative's place in sector
    blocks, mult = [], []
    for m in range(n + 1):
        sector = np.nonzero(counts == m)[0]
        reps = sector[rep[sector] == sector]
        if 0 < m < n:
            # a partial period returns a representative to itself early
            if (orbit[1:, reps] == reps).any():
                raise LinalgError("translation orbit with partial period")
        else:
            # uniform states are their own orbit: keep the 1x1 block at k=0
            blocks.append(tuple(
                _dense_block(c, reps).real.astype(float) if rk else
                _dense_block(c, reps).astype(complex) for c in coos))
            mult.append(1)
            continue
        pos[reps] = np.arange(reps.size)
        per_op = []
        for row, col, amps in in_rep_col:
            at = counts[col] == m
            per_op.append((pos[rep[row[at]]], pos[col[at]], shift[row[at]],
                           amps[at]))
        r_dim = len(reps)
        if rk:
            mirror, lr = pos[rep[refl[reps]]], shift[refl[reps]]
            per_op = [_rk_entries(*entries, mirror, lr, n)
                      for entries in per_op]
        for k in momenta:
            blocks.append(tuple(
                _rk_block(k, turns, entries, r_dim, op_scale) if rk else
                _momentum_block(k, omega, entries, r_dim, op_scale)
                for entries in per_op))
            mult.append(2 if real and 0 < 2 * k < n else 1)
    return blocks, mult


def _momentum_block(k, omega, entries, r_dim, op_scale):
    """The complex Hermitian block at momentum k, in the basis |k,r>, of
    one op's momentum entries (row, col, phase shift, amplitude)."""
    rows, colpos, shifts, amps = entries
    b = np.zeros((r_dim, r_dim), dtype=complex)
    np.add.at(b, (rows, colpos), amps * omega ** (shifts * k))
    if np.abs(b - b.conj().T).max() > SYMMETRY_TOL * op_scale:
        raise LinalgError("momentum block not Hermitian")
    return (b + b.conj().T) / 2


def _turns(n: int) -> np.ndarray:
    """e^(i pi t / 2n) for t = 0 .. 4n-1, each a cosine of the first
    quarter turn times a power of i.  The table maps to itself exactly under
    t -> -t and t -> t + n, as the circle does, so the imaginary parts of
    the terms of a block element cancel but for the rounding of their sum:
    below 2e-15 on the Dicke-13 blocks, where np.exp's phases leave 1.2e-14
    and move the dicke-block golden rows by 1.4e-10."""
    c = np.cos(np.pi * np.arange(n + 1) / (2 * n))
    c[n] = 0.0
    t = np.arange(4 * n)
    return ((c[t % n] + 1j * c[n - t % n])
            * np.array([1, 1j, -1, -1j])[t // n])


def _rk_entries(rows, cols, shifts, amps, mirror, lr, n):
    """One op's momentum entries in a sector, spread over the RK-fixed
    basis, as a real block is summed from them at any momentum k.

    The momentum entry (i, j) = amps * w^(k shifts) (w = e^(2 pi i / n))
    links |k,r_i> and |k,r_j>.  R|r_j> = T^lr[j] |r_mirror[j]>, and
    RK|k,r> = w^(k l_r) |k,rbar> (K the complex conjugation), so the
    RK-fixed basis is w^(k l_r / 2) |k,r> where r = rbar, and for each pair
    r < rbar (|k,r> + phi |k,rbar>)/sqrt2 at r's position and
    i(|k,r> - phi |k,rbar>)/sqrt2 at rbar's, with phi = w^(k l_r)
    (l_rbar = l_r for a full period).  So |k,r_j> has at most two
    components: x = 0 at position min(j, mirror[j]) and x = 1 at
    max(j, mirror[j]), each with phase e^(i pi (k a[x, j] + b[x, j]) / 2n)
    and modulus 1 (r = rbar) or 1/sqrt2.  Each entry adds a term to the
    <= 4 elements its components meet at.  Returns each term's phase
    (k p + q) as (p, q), its weight amps * modulus, the element it adds
    to, as a place in `elements`, the distinct flat element positions."""
    r_dim = mirror.size
    j = np.arange(r_dim)
    pair, second = j != mirror, j > mirror
    target = np.array([np.minimum(j, mirror), np.maximum(j, mirror)])
    a = np.array([np.where(pair, 4 * lr * second, 2 * lr), 4 * lr * second])
    b = np.array([np.zeros(r_dim, np.int64), np.where(second, 3 * n, n)])
    has = np.array([np.ones(r_dim, bool), pair])  # component x = 1 exists
    cx, cy = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
    c, e = np.nonzero(has[cx][:, rows] & has[cy][:, cols])
    x, y, ri, cj = cx[c], cy[c], rows[e], cols[e]
    modulus = np.array([1.0, np.sqrt(0.5), 0.5])[pair[ri].astype(int)
                                                  + pair[cj]]
    elements, place = np.unique(target[x, ri] * r_dim + target[y, cj],
                                return_inverse=True)
    return (4 * shifts[e] + a[y, cj] - a[x, ri], b[y, cj] - b[x, ri],
            amps[e].real * modulus, place, elements)


def _rk_block(k, turns, entries, r_dim, op_scale):
    """The real symmetric block at momentum k of one op's `_rk_entries`;
    `turns` is `_turns(n)`.  Raises LinalgError where the block is not
    real or not symmetric."""
    p, q, weight, place, elements = entries
    b = np.zeros((r_dim, r_dim))
    if not weight.size:
        return b
    phase = turns[(k * p + q) % turns.size]
    imag = np.bincount(place, weight * phase.imag, elements.size)
    if np.abs(imag).max() > SYMMETRY_TOL * op_scale:
        raise LinalgError("momentum block not real in the RK basis")
    b.flat[elements] = np.bincount(place, weight * phase.real, elements.size)
    if np.abs(b - b.T).max() > SYMMETRY_TOL * op_scale:
        raise LinalgError("momentum block not Hermitian")
    return (b + b.T) / 2


def energy_extremes(h):
    """Return (E0, ground vectors as columns, E_max); the ground space
    spans every level within DEGENERACY_RTOL * max(|E|, 1) of E0."""
    m = h.entries if isinstance(h, HermitianOperator) else np.asarray(h)
    w, v = np.linalg.eigh(m)
    scale = max(np.abs(w).max(), 1.0)
    n_ground = int(np.sum(w <= w[0] + DEGENERACY_RTOL * scale))
    return w[0], v[:, :n_ground], w[-1]
