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

from .linalg import Bipartition, CooMatrix, LinalgError
from .models import excitation_sector_indices

ALL = "all"

_GRAM_TOL = 1e-10


@dataclass(frozen=True)
class Witness:
    """Hermitian operator with tr(rho W) >= 0 on its separable class."""

    matrix: CooMatrix  # or any sparse matrix with a tocoo()
    alpha: float | None = None

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()


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


def dicke_witness(n: int, m: int) -> Witness:
    """Linear witness detecting the n-qubit Dicke state with m excitations.

    Sums, over unordered pairs of m-subsets sharing m-1 indices, the
    hopping terms -|d_beta><d_alpha| - h.c. plus the projectors onto the
    intersection and union configurations, all with a 1/2 prefactor.
    Supported on excitation sectors m-1, m, m+1.  Built by bit operations
    on the basis states of popcount m: a pair moves an excitation from a
    site `out` of alpha to a site `into` outside it, and is taken once,
    from its lower index alpha (`into` < `out`).
    """
    if not 1 <= m <= n - 1:
        raise ValueError("need 1 <= m <= n-1")
    into, out = np.triu_indices(n, 1)
    alpha = excitation_sector_indices(n, m)[:, None]
    bit_in, bit_out = 1 << (n - 1 - into), 1 << (n - 1 - out)
    moves = ((alpha & bit_out) != 0) & ((alpha & bit_in) == 0)
    ia = np.broadcast_to(alpha, moves.shape)[moves]
    bit_in = np.broadcast_to(bit_in, moves.shape)[moves]
    icap = ia ^ np.broadcast_to(bit_out, moves.shape)[moves]
    ib, icup = icap | bit_in, ia | bit_in
    half = np.full(ia.size, 0.5)
    d = 2 ** n
    return Witness(CooMatrix(np.concatenate([ia, ib, icap, icup]),
                             np.concatenate([ib, ia, icap, icup]),
                             np.concatenate([-half, -half, half, half]),
                             (d, d)))


def _cut_matrices(states: np.ndarray, cut: Bipartition) -> np.ndarray:
    """Each state (a row of `states`) as its 2^|A| x 2^|B| coefficient
    matrix across the cut."""
    n = cut.n_sites
    if states.shape[-1] != 2 ** n:
        raise LinalgError("state size does not match bipartition")
    a_sites = sorted(cut.subset_mask)
    b_sites = sorted(cut.complement)
    t = states.reshape((-1,) + (2,) * n)
    t = t.transpose([0] + [1 + i for i in a_sites + b_sites])
    return t.reshape(-1, 2 ** len(a_sites), 2 ** len(b_sites))


def _product_overlap_bound(states: np.ndarray, cut: Bipartition) -> float:
    """min(lam_max(tr_B P), lam_max(tr_A P)) >= <a b|P|a b> for P the
    projector onto the span of the rows of `states` and any product state
    |a b> across the cut.  tr_B P = sum_k M_k M_k^+ for the cut matrices
    M_k, so its top eigenvalue is the squared norm of [M_1 ... M_K], and
    that of tr_A P of the M_k stacked."""
    m = _cut_matrices(states, cut)
    k, da, db = m.shape
    side_by_side = m.transpose(1, 0, 2).reshape(da, k * db)
    return float(min(np.linalg.norm(side_by_side, 2),
                     np.linalg.norm(m.reshape(k * da, db), 2)) ** 2)


def projector_witness(states, cuts, n_sites: int | None = None) -> Witness:
    """W = alpha*I - P for P the projector onto the span of `states`.

    `cuts` is a list of bipartitions or ALL.  alpha is a certified bound
    on the overlap of P with product states across any of the cuts: per
    cut min(lam_max(tr_B P), lam_max(tr_A P)), which for one state is its
    largest squared Schmidt coefficient (Bourennane et al., PRL 92, 087902
    (2004); Guehne & Toth, Phys. Rep. 474, 1 (2009)), maximized over the
    cuts and capped at 1.  So tr(rho W) >= 0 on every state that is a
    mixture of such product states.  Where the bound reaches 1, W = I - P
    is PSD and detects nothing.
    """
    states = np.atleast_2d(np.asarray(states, dtype=complex))  # rows
    if n_sites is None:
        n_sites = int(round(np.log2(states.shape[1])))
    gram = states.conj() @ states.T
    if np.abs(gram - np.eye(len(states))).max() > _GRAM_TOL:
        raise LinalgError("projector states must be orthonormal")
    if cuts == ALL:
        cuts = all_bipartitions(n_sites)
    alpha = min(max(_product_overlap_bound(states, c) for c in cuts), 1.0)
    p = states.T @ states.conj()
    w = alpha * np.eye(states.shape[1]) - p
    return Witness(CooMatrix.from_dense(w), alpha=alpha)


def dicke_field_range(n: int, m: int, delta_j: float):
    """Open field interval in which the (n, m) Dicke state is the
    perturbative ground state of the anisotropic XXZ chain."""
    if n < 2 or not 0 <= m <= n or delta_j <= 0:
        raise ValueError("invalid Dicke field-range parameters")
    lo = -(n - 2 * m + 1) / (n - 1) * delta_j
    hi = -(n - 2 * m - 1) / (n - 1) * delta_j
    return lo, hi
