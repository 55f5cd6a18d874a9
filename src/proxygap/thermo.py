"""Exact Gibbs thermodynamics from a finite spectrum.

All exponentials are shifted by the max exponent before exponentiation;
entropies are in nats and S = beta*E + ln Z throughout.
"""
from __future__ import annotations

import numpy as np
from scipy.optimize import brentq

from .linalg import HermitianOperator


def gibbs_at(spectrum, beta: float):
    """Return (lnZ, E, S) for the Gibbs state of `spectrum` at inverse
    temperature beta >= 0."""
    w = np.asarray(spectrum, dtype=float)
    if w.size == 0:
        raise ValueError("empty spectrum")
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    x = -beta * w
    shift = x.max()
    ex = np.exp(x - shift)
    z = ex.sum()
    lnz = np.log(z) + shift
    e = float((ex * w).sum() / z)
    s = beta * e + lnz
    return float(lnz), e, float(max(s, 0.0))


def energy_range(spectrum):
    """Attainable (E0, infinite-temperature mean) for beta >= 0."""
    w = np.asarray(spectrum, dtype=float)
    return float(w.min()), float(w.mean())


def beta_from_energy(spectrum, e: float, tol: float = 1e-12,
                     beta_max: float = 1e6) -> float:
    """Invert E(beta) = e on the beta >= 0 branch by bisection."""
    w = np.asarray(spectrum, dtype=float)
    e0, e_inf = energy_range(w)
    spread = max(e_inf - e0, 1e-300)
    if e > e_inf + 1e-12 * spread or e <= e0 - 1e-12 * spread:
        raise ValueError(f"energy {e} outside ({e0}, {e_inf}]")
    if e >= e_inf:
        return 0.0

    def f(beta):
        return gibbs_at(w, beta)[1] - e

    hi = 1.0
    while f(hi) > 0:
        hi *= 4.0
        if hi > beta_max:
            return beta_max
    return float(brentq(f, 0.0, hi, xtol=tol * max(1.0, 1.0 / spread),
                        rtol=4 * np.finfo(float).eps, maxiter=200))


def _linear_entropy_weights(w: np.ndarray, e: float, tol: float = 1e-10,
                            max_iter: int = 200):
    """Maximize 1 - sum p_i^2 with sum p = 1, sum p w = e, p >= 0.

    Active-set water filling: on the support p_i = a + b*w_i with (a, b)
    from the two moment equations; clip and repeat until the support is
    stable."""
    d = w.size
    active = np.ones(d, dtype=bool)
    for _ in range(max_iter):
        wa = w[active]
        k = wa.size
        s1, s2 = wa.sum(), (wa ** 2).sum()
        det = k * s2 - s1 ** 2
        if det < 1e-30 * max(1.0, s2):
            # degenerate (all active energies equal): uniform on support
            a, b = 1.0 / k, 0.0
        else:
            a = (s2 - s1 * e) / det
            b = (k * e - s1) / det
        p = np.where(active, a + b * w, 0.0)
        if p[active].min() >= -tol:
            p = np.maximum(p, 0.0)
            p /= p.sum()
            return p
        drop = (p < -tol) & active
        active &= ~drop
        if not active.any():
            raise RuntimeError("empty active set in linear-entropy solve")
    raise RuntimeError("linear-entropy active set did not converge")


def linear_entropy_max(h, e: float) -> float:
    """Maximal impurity 1 - tr(rho^2) over states with tr(rho H) = e."""
    if isinstance(h, HermitianOperator):
        w = np.linalg.eigvalsh(h.entries)
    else:
        w = np.sort(np.asarray(h, dtype=float))
    if not (w.min() - 1e-12 <= e <= w.max() + 1e-12):
        raise ValueError("energy outside the attainable range")
    e = float(np.clip(e, w.min(), w.max()))
    p = _linear_entropy_weights(w, e)
    return float(1.0 - (p ** 2).sum())


def linear_entropy_max_weights(h, e: float) -> np.ndarray:
    """Optimal eigenvalue weights of the impurity maximizer."""
    if isinstance(h, HermitianOperator):
        w = np.linalg.eigvalsh(h.entries)
    else:
        w = np.sort(np.asarray(h, dtype=float))
    return _linear_entropy_weights(w, float(e))
