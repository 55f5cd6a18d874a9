"""Exact Gibbs thermodynamics from a finite spectrum.

All exponentials are shifted by the max exponent before exponentiation;
entropies are in nats and S = beta*E + ln Z throughout.  `gibbs_newton`
alone inverts E(beta) = e, on a spectrum shifted to its minimum.
"""
from __future__ import annotations

import math

import numpy as np


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


BETA_MAX = 1e6   # the cap of an inverse temperature


def beta_from_energy(spectrum, e: float) -> float:
    """Invert E(beta) = e on the beta >= 0 branch: `gibbs_newton` on the
    spectrum shifted to its minimum, capped at BETA_MAX."""
    w = np.asarray(spectrum, dtype=float)
    e0, e_inf = energy_range(w)
    spread = max(e_inf - e0, 1e-300)
    if not e0 - 1e-12 * spread < e <= e_inf + 1e-12 * spread:
        raise ValueError(f"energy {e} outside ({e0}, {e_inf}]")
    if e >= e_inf:  # the shifted mean may round below e - e0
        return 0.0
    return float(min(gibbs_newton(w - e0, e - e0)[0], BETA_MAX))


def gibbs_newton(x: np.ndarray, t: float, beta: float = 0.0, counts=None):
    """The Gibbs state at mean energy t of the spectrum x >= 0, min x = 0,
    eigenvalue i counted counts[i] times (once where counts is None):
    (beta, ln Z, q) with Z = sum_i c_i exp(-beta x_i), q_i = c_i
    exp(-beta x_i) / Z.  beta = 0 where t >= the mean, BETA_MAX where
    t <= 0.  In between, Newton's method on ln E(beta) = ln t, whose slope
    is -Var / E, from `beta` (the last solve's, close by where the spectrum
    moved a little); a step that leaves the bracket which the signs give
    bisects it.  Near the root the error squares each step, so the step
    from a residual below 1e-8 is the last; where 100 steps end short of
    it (t is NaN, say), RuntimeError."""
    c = 1.0 if counts is None else counts
    if t >= (x.mean() if counts is None else (c @ x) / c.sum()):
        beta = 0.0
    elif t <= 0.0:
        beta = BETA_MAX
    else:
        lo, hi = 0.0, np.inf
        for _ in range(100):
            q = c * np.exp(-beta * x)
            p = q / q.sum()
            e = p @ x
            if e > t:
                lo = beta
            else:
                hi = beta
            var = p @ (x - e) ** 2
            g = math.log(e / t) if e > 0.0 else -np.inf
            step = g * e / var if var > 0.0 else 0.0
            if abs(g) <= 1e-8:
                beta += step
                break
            if lo < beta + step < hi:
                beta += step
            else:
                beta = 0.5 * (lo + hi) if hi < np.inf else 2.0 * lo
        else:
            raise RuntimeError(f"no beta at energy {t} in 100 steps")
    q = c * np.exp(-beta * x)
    z = q.sum()
    return beta, math.log(z), q / z


def _linear_entropy_weights(w: np.ndarray, e: float):
    """Maximize 1 - sum p_i^2 with sum p = 1, sum p w = e, p >= 0.

    The maximizer is p = (a + b w)_+.  Below the mean (b < 0) its support
    is the k lowest energies: the weights (w_(j+1) - w_i)_+ of each level
    w_(j+1) have an energy that rises with j, and k is one more than the
    number of levels whose energy is at most e.  (a, b) then solve the two
    moment equations on the support, e clipped to the spectrum; where the
    support is one level, b sends the next level up to zero.  Above the
    mean the same holds for the highest energies.  The level energies are
    taken as offsets from the lowest level, where a lowest level that
    rounding has split by an ulp adds no cancellation.  Returns (p, a,
    b)."""
    flip = e > w.mean()
    v, t = (-w, -e) if flip else (w, e)
    vs = np.sort(v)
    t = min(max(t, vs[0]), vs[-1])
    u = vs - vs[0]
    u1, u2 = np.cumsum(u), np.cumsum(u * u)
    j = np.arange(1, vs.size)
    nxt = u[1:]
    den = nxt * j - u1[:-1]  # zero only where all j lowest equal nxt
    safe = np.where(den > 0.0, den, 1.0)
    level = np.where(den > 0.0, (nxt * u1[:-1] - u2[:-1]) / safe, nxt)
    k = 1 + int(np.count_nonzero(level <= t - vs[0]))
    s1, s2 = np.cumsum(vs)[k - 1], np.cumsum(vs * vs)[k - 1]
    det = k * s2 - s1 * s1
    if det > 1e-30 * max(1.0, s2):
        a, b = (s2 - s1 * t) / det, (k * t - s1) / det
    else:  # one level: uniform on it, and none on the next one up
        a, b = 1.0 / k, 0.0
        if k < vs.size:
            b = -a / (vs[k] - vs[0])
            a -= b * vs[0]
    p = np.maximum(a + b * v, 0.0)
    return p / p.sum(), a, -b if flip else b


def entropy_slope(x, t, linear: bool, beta: float = 0.0):
    """(S, dS/dt, beta) of the spectrum x >= 0, min x = 0, at mean energy
    t, capped at the mean of x: the Gibbs entropy and its beta, warm from
    `beta` (`gibbs_newton`), or the maximal impurity and -2b, its weights
    (a + b x)_+."""
    if linear:
        p, _, b = _linear_entropy_weights(x, min(max(t, 0.0), x.mean()))
        return 1.0 - p @ p, -2.0 * b, beta
    beta, lnz, _ = gibbs_newton(x, t, beta)
    return lnz + beta * t, beta, beta


def linear_entropy_max(spectrum, e: float) -> float:
    """Maximal impurity 1 - tr(rho^2) over states with tr(rho H) = e, H
    of the given spectrum."""
    w = np.sort(np.asarray(spectrum, dtype=float))
    if not (w.min() - 1e-12 <= e <= w.max() + 1e-12):
        raise ValueError("energy outside the attainable range")
    e = float(np.clip(e, w.min(), w.max()))
    p = _linear_entropy_weights(w, e)[0]
    return float(1.0 - (p ** 2).sum())


def linear_entropy_max_weights(spectrum, e: float) -> np.ndarray:
    """Optimal eigenvalue weights of the impurity maximizer, in the order
    of the sorted spectrum."""
    w = np.sort(np.asarray(spectrum, dtype=float))
    return _linear_entropy_weights(w, float(e))[0]
