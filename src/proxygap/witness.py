"""Entanglement witnesses and positive-map constraint slots.

A `ConstraintSet` collects witness operators (scalar dual variables) and
bipartitions on which partial transposition must leave the state PSD
(matrix dual variables).  The witness builders return sparse `CooMatrix`
operators, built with numpy alone.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import Bipartition, CooMatrix, LinalgError, is_sparse

ALL = "all"

_GRAM_TOL = 1e-10


@dataclass(frozen=True)
class Witness:
    """Hermitian operator with tr(rho W) >= 0 on its separable class."""

    matrix: CooMatrix  # or any sparse matrix with a tocoo(), or an array
    alpha: float | None = None

    def to_dense(self) -> np.ndarray:
        if is_sparse(self.matrix):
            return self.matrix.toarray()
        return np.asarray(self.matrix)


@dataclass(frozen=True)
class ConstraintSet:
    witnesses: tuple[Witness, ...] = ()
    map_slots: tuple[Bipartition, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "witnesses", tuple(self.witnesses))
        object.__setattr__(self, "map_slots", tuple(self.map_slots))


def all_bipartitions(n: int) -> list[Bipartition]:
    """All 2^(n-1)-1 inequivalent cuts (A side contains site 0)."""
    if n > 16:
        raise LinalgError("bipartition enumeration capped at 16 sites")
    cuts = []
    for rest in itertools.chain.from_iterable(
            itertools.combinations(range(1, n), k) for k in range(n - 1)):
        cuts.append(Bipartition({0, *rest}, n))
    return cuts


def even_odd_bipartition(n: int) -> Bipartition:
    """Odd sites (1-based: 1,3,5,...) versus even sites."""
    return Bipartition(set(range(0, n, 2)), n)


def _subset_to_index(subset, n: int) -> int:
    idx = 0
    for i in subset:
        idx |= 1 << (n - 1 - i)
    return idx


def dicke_witness(n: int, m: int) -> Witness:
    """Linear witness detecting the n-qubit Dicke state with m excitations.

    Sums, over unordered pairs of m-subsets sharing m-1 indices, the
    hopping terms -|d_beta><d_alpha| - h.c. plus the projectors onto the
    intersection and union configurations, all with a 1/2 prefactor.
    Supported on excitation sectors m-1, m, m+1.
    """
    if not 1 <= m <= n - 1:
        raise ValueError("need 1 <= m <= n-1")
    rows, cols, vals = [], [], []
    for alpha in itertools.combinations(range(n), m):
        aset = set(alpha)
        ia = _subset_to_index(aset, n)
        for out in alpha:
            for into in range(n):
                if into in aset:
                    continue
                bset = (aset - {out}) | {into}
                ib = _subset_to_index(bset, n)
                if ib < ia:
                    continue  # unordered pairs once
                icap = _subset_to_index(aset & bset, n)
                icup = _subset_to_index(aset | bset, n)
                rows += [ia, ib, icap, icup]
                cols += [ib, ia, icap, icup]
                vals += [-0.5, -0.5, 0.5, 0.5]
    d = 2 ** n
    return Witness(CooMatrix(rows, cols, vals, (d, d)))


def max_schmidt_overlap(psi: np.ndarray, cut: Bipartition) -> float:
    """Largest squared Schmidt coefficient of psi across the cut."""
    psi = np.asarray(psi, dtype=complex)
    n = cut.n_sites
    if psi.size != 2 ** n:
        raise LinalgError("state size does not match bipartition")
    a_sites = sorted(cut.subset_mask)
    b_sites = sorted(cut.complement)
    t = psi.reshape((2,) * n).transpose(a_sites + b_sites)
    mat = t.reshape(2 ** len(a_sites), 2 ** len(b_sites))
    s = np.linalg.svd(mat, compute_uv=False)
    return float(s[0] ** 2)


def _contract_site_a(p_tensor, phi, da, db):
    """<phi|_A P |phi>_A as a db x db matrix; p_tensor is (da,db,da,db)."""
    return np.einsum("a,abcd,c->bd", phi.conj(), p_tensor, phi)


def _alternating_alpha(p: np.ndarray, da: int, db: int, restarts: int,
                       rng: np.random.Generator, iters: int = 200,
                       tol: float = 1e-12) -> float:
    """max <phi x chi| P |phi x chi> by alternating eigenvector updates."""
    pt = p.reshape(da, db, da, db)
    best = 0.0
    for _ in range(restarts):
        phi = rng.standard_normal(da) + 1j * rng.standard_normal(da)
        phi /= np.linalg.norm(phi)
        val = 0.0
        for _ in range(iters):
            mb = _contract_site_a(pt, phi, da, db)
            wb, vb = np.linalg.eigh((mb + mb.conj().T) / 2)
            chi = vb[:, -1]
            ma = np.einsum("b,abcd,d->ac", chi.conj(), pt, chi)
            wa, va = np.linalg.eigh((ma + ma.conj().T) / 2)
            phi = va[:, -1]
            if abs(wa[-1] - val) < tol:
                val = wa[-1]
                break
            val = wa[-1]
        best = max(best, float(val))
    return best


def _permute_for_cut(vec: np.ndarray, cut: Bipartition):
    n = cut.n_sites
    a_sites = sorted(cut.subset_mask)
    b_sites = sorted(cut.complement)
    t = vec.reshape((2,) * n).transpose(a_sites + b_sites).reshape(-1)
    return t, 2 ** len(a_sites), 2 ** len(b_sites)


def _disjoint_supports(states: np.ndarray, tol: float = 1e-12) -> bool:
    sup = np.abs(states) > tol
    overlap = sup.astype(int) @ sup.astype(int).T
    return bool(np.all(overlap[~np.eye(len(sup), dtype=bool)] == 0))


def projector_witness(states, cuts, n_sites: int | None = None,
                      restarts: int = 50, seed: int = 0) -> Witness:
    """W = alpha*I - P for P the projector onto the span of `states`.

    `cuts` is a list of bipartitions or ALL.  alpha is the maximal squared
    overlap of the projector's range with product states across the cuts:
    exact via Schmidt coefficients for a single state or for states with
    pairwise disjoint computational-basis support, otherwise a best-effort
    alternating maximization with random restarts.
    """
    states = np.atleast_2d(np.asarray(states, dtype=complex))  # rows
    if n_sites is None:
        n_sites = int(round(np.log2(states.shape[1])))
    gram = states.conj() @ states.T
    if np.abs(gram - np.eye(len(states))).max() > _GRAM_TOL:
        raise LinalgError("projector states must be orthonormal")
    if cuts == ALL:
        cuts = all_bipartitions(n_sites)
    rng = np.random.default_rng(seed)

    if len(states) == 1 or _disjoint_supports(states):
        alpha = 0.0
        for psi in states:
            alpha = max(alpha, max(max_schmidt_overlap(psi, c) for c in cuts))
    else:
        p = states.T @ states.conj()
        alpha = 0.0
        for c in cuts:
            # reorder P so the cut is a contiguous A|B split
            perm_states = []
            for psi in states:
                t, da, db = _permute_for_cut(psi, c)
                perm_states.append(t)
            ps = np.asarray(perm_states)
            pc = ps.T @ ps.conj()
            alpha = max(alpha, _alternating_alpha(pc, da, db, restarts, rng))
    p = states.T @ states.conj()
    d = states.shape[1]
    w = alpha * np.eye(d) - p
    return Witness(CooMatrix.from_dense(w), alpha=float(alpha))


def dicke_field_range(n: int, m: int, delta_j: float):
    """Open field interval in which the (n, m) Dicke state is the
    perturbative ground state of the anisotropic XXZ chain."""
    if n < 2 or not 0 <= m <= n or delta_j <= 0:
        raise ValueError("invalid Dicke field-range parameters")
    lo = -(n - 2 * m + 1) / (n - 1) * delta_j
    hi = -(n - 2 * m - 1) / (n - 1) * delta_j
    return lo, hi
