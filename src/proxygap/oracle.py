"""Brute-force separable-state heuristics for small chains.

Everything here is a heuristic bound from local optimization over product
states: an upper bound on the separable minimum energy, a lower bound on
the separable maximum entropy, a lower bound on the best product-state
overlap.  These sandwich the dual certificates in tests; they never
certify entanglement themselves.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .linalg import HermitianOperator

MAX_ORACLE_QUBITS = 6

_CONVERGE_TOL = 1e-12
_SWEEP_LIMIT = 500
_PROJECT_ITERS = 100  # dual Newton steps of `_project_simplex_hyperplane`
_ASCENT_ITERS = 500   # gradient steps of `max_entropy_separable_lower`


@dataclass
class ProductStateSample:
    """Per-site Bloch angles (theta_i, phi_i) and the assembled vector."""

    angles: np.ndarray  # shape (n, 2)

    def site_vectors(self) -> np.ndarray:
        th = self.angles[:, 0]
        ph = self.angles[:, 1]
        return np.stack([np.cos(th / 2) + 0j,
                         np.exp(1j * ph) * np.sin(th / 2)], axis=1)

    def state(self) -> np.ndarray:
        return _product_vector(self.site_vectors())


def _product_vector(sites) -> np.ndarray:
    """The product of the single-site vectors, site 0 most significant."""
    return reduce(np.kron, sites, np.ones(1, dtype=complex))


def _angles_from_vector(v: np.ndarray) -> tuple[float, float]:
    v = v / np.linalg.norm(v)
    v = v * np.exp(-1j * np.angle(v[0]))  # fix the global phase
    theta = 2.0 * np.arctan2(abs(v[1]), v[0].real)
    phi = float(np.angle(v[1])) if abs(v[1]) > 1e-15 else 0.0
    return float(theta), phi


def _check_oracle_size(n: int):
    if n > MAX_ORACLE_QUBITS:
        raise ValueError(
            f"oracle limited to {MAX_ORACLE_QUBITS} qubits, got {n}")


def _embed_site(sites: np.ndarray, i: int) -> np.ndarray:
    """d x 2 isometry fixing every site except i to its current vector."""
    return reduce(np.kron, (np.eye(2, dtype=complex) if j == i else s[:, None]
                            for j, s in enumerate(sites)),
                  np.ones((1, 1), dtype=complex))


def _random_product(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _sweep(hmat: np.ndarray, sites: np.ndarray) -> float:
    """One coordinate-descent sweep: each site in turn becomes the exact
    ground state of its 2x2 effective Hamiltonian, the others fixed.
    Returns the energy after the last update."""
    for i in range(len(sites)):
        m = _embed_site(sites, i)
        heff = m.conj().T @ hmat @ m
        w, v = np.linalg.eigh((heff + heff.conj().T) / 2)
        sites[i] = v[:, 0]
    return float(w[0])


def _descend_energy(hmat: np.ndarray, sites: np.ndarray) -> float:
    """`_sweep` until the energy settles (it never rises); returns it."""
    energy = np.inf
    for _ in range(_SWEEP_LIMIT):
        new = _sweep(hmat, sites)
        if energy - new < _CONVERGE_TOL * max(1.0, abs(new)):
            return new
        energy = new
    return energy


def min_energy_product(h, restarts: int = 200,
                       seed: int = 0) -> tuple[float, ProductStateSample]:
    """Heuristic upper bound on the minimum energy over product states.

    Runs `restarts` seeded coordinate-descent passes and keeps the best;
    the bound also upper-bounds the separable minimum energy because the
    separable minimum is attained at a pure product state.
    """
    hmat = h.entries if isinstance(h, HermitianOperator) else np.asarray(h)
    n = int(round(np.log2(hmat.shape[0])))
    if 2 ** n != hmat.shape[0]:
        raise ValueError("oracle requires qubit systems")
    _check_oracle_size(n)
    rng = np.random.default_rng(seed)
    best_e = np.inf
    best_sites = None
    for _ in range(restarts):
        sites = _random_product(rng, n)
        e = _descend_energy(hmat, sites)
        if e < best_e:
            best_e, best_sites = e, sites.copy()
    angles = np.array([_angles_from_vector(v) for v in best_sites])
    return best_e, ProductStateSample(angles)


def _project_simplex_hyperplane(q: np.ndarray, es: np.ndarray,
                                e: float) -> np.ndarray:
    """Euclidean projection onto {p >= 0, sum p = 1, p . es = e}.

    Dual Newton on the two multipliers of p = (q - a - b*es)_+.
    """
    a, b = 0.0, 0.0
    for _ in range(_PROJECT_ITERS):
        p = q - a - b * es
        act = p > 0
        if not act.any():
            a -= 1.0 / q.size
            continue
        k = act.sum()
        s1 = es[act].sum()
        s2 = (es[act] ** 2).sum()
        r1 = p[act].sum() - 1.0
        r2 = (p[act] * es[act]).sum() - e
        det = k * s2 - s1 * s1
        if det < 1e-30 * max(1.0, s2):
            da, db = r1 / k, 0.0
        else:
            da = (s2 * r1 - s1 * r2) / det
            db = (k * r2 - s1 * r1) / det
        a += da
        b += db
        if abs(da) + abs(db) * max(1.0, np.abs(es).max()) < 1e-14:
            break
    return np.maximum(q - a - b * es, 0.0)


def max_entropy_separable_lower(h, e: float, ensemble_size: int = 64,
                                seed: int = 0) -> float:
    """Heuristic lower bound on the maximal separable entropy at energy e.

    Builds a dictionary of locally-optimized product states (random
    starts descended partway toward the product minimum, plus the
    computational basis) and maximizes the entropy of the mixture over
    the weight simplex cut by the energy constraint, by projected
    gradient ascent.
    """
    hmat = h.entries if isinstance(h, HermitianOperator) else np.asarray(h)
    d = hmat.shape[0]
    n = int(round(np.log2(d)))
    if n > 4:
        raise ValueError("separable-entropy oracle limited to 4 qubits")
    rng = np.random.default_rng(seed)
    states = [np.eye(d, dtype=complex)[:, i] for i in range(d)]
    while len(states) < d + ensemble_size:
        sites = _random_product(rng, n)
        for _ in range(int(rng.integers(0, 4))):
            _sweep(hmat, sites)
        states.append(_product_vector(sites))
    states = np.asarray(states)
    es = np.real(np.einsum("ki,ij,kj->k", states.conj(), hmat, states))
    if not es.min() - 1e-9 <= e <= es.max() + 1e-9:
        raise ValueError(
            f"energy {e} infeasible for the dictionary; achievable "
            f"interval [{es.min()}, {es.max()}]")
    e = float(np.clip(e, es.min(), es.max()))

    def entropy_grad(p):
        rho = np.einsum("k,ki,kj->ij", p, states, states.conj())
        w, v = np.linalg.eigh(rho)
        w = np.clip(w, 1e-300, None)
        s = float(-(w * np.log(w)).sum())
        lnr = (v * np.log(w)) @ v.conj().T
        g = -np.real(np.einsum("ki,ij,kj->k", states.conj(), lnr, states)) - 1.0
        return s, g

    p = _project_simplex_hyperplane(np.full(len(states), 1.0 / len(states)),
                                    es, e)
    s, g = entropy_grad(p)
    step = 1.0
    for _ in range(_ASCENT_ITERS):
        pn = _project_simplex_hyperplane(p + step * g, es, e)
        sn, gn = entropy_grad(pn)
        if sn >= s:
            p, s, g = pn, sn, gn
            step *= 1.3
        else:
            step *= 0.5
            if step < 1e-12:
                break
    return s


def alpha_product_bruteforce(psi: np.ndarray, restarts: int = 200,
                             seed: int = 0) -> float:
    """Heuristic lower bound on the maximal squared overlap of `psi` with
    a pure product state, by alternating exact single-site alignment.

    One restart starts from the dominant computational basis state, which
    guarantees the 1/d uniform-overlap floor.
    """
    psi = np.asarray(psi, dtype=complex)
    d = psi.size
    n = int(round(np.log2(d)))
    if 2 ** n != d:
        raise ValueError("oracle requires qubit systems")
    _check_oracle_size(n)
    psi = psi / np.linalg.norm(psi)
    rng = np.random.default_rng(seed)
    t = psi.reshape((2,) * n)

    def overlap_descend(sites):
        val = 0.0
        for _ in range(_SWEEP_LIMIT):
            for i in range(n):
                cond = t
                for j in range(n - 1, -1, -1):
                    if j != i:
                        cond = np.tensordot(cond, sites[j].conj(), ([j], [0]))
                nrm = np.linalg.norm(cond)
                if nrm < 1e-300:
                    return 0.0
                sites[i] = cond / nrm
            new = float(nrm ** 2)
            if new - val < 1e-14:
                return new
            val = new
        return val

    best_idx = int(np.argmax(np.abs(psi)))
    starts = [np.array([np.eye(2, dtype=complex)[(best_idx >> (n - 1 - i)) & 1]
                        for i in range(n)])]
    starts += [_random_product(rng, n) for _ in range(restarts - 1)]
    best = max(overlap_descend(s) for s in starts)
    assert best <= 1.0 + 1e-9
    assert best >= 1.0 / d - 1e-9
    return min(best, 1.0)
