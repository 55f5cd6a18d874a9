"""Thermodynamic-limit densities for the XY chain and the detection
region of the diagonal ground-state-witness criterion.

The chain is H = -sum_i ((1+r)/2 XX + (1-r)/2 YY + h Z) with dispersion
eps(k) = sqrt((h - cos k)^2 + r^2 sin^2 k); per-site quantities are

    lnZ/N -> (1/pi) int_0^pi ln(2 cosh(c*beta*eps(k))) dk
    E0/N  -> -(c/pi) int_0^pi eps(k) dk

with the overall factor c frozen to the value found by least-squares
calibration against the exact finite-size spectrum (see
`calibration_factor`).  The product-overlap density ln(alpha)/N uses a
conjectured closed form; results depending on it are
conjecture-conditional.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.optimize import least_squares, minimize_scalar

from .thermo import gibbs_at

# frozen by calibration against the exact N=12 spectrum; the fit
# returns 1 to three digits (the dispersion above is the single-particle
# energy in the same units as the Hamiltonian)
DISPERSION_FACTOR = 1.0

QUAD_ABS_TOL = 1e-9

CALIBRATION_PROBES = ((1.0, 0.0, 1.0), (1.0, 1.0, 1.0), (0.5, 0.5, 2.0),
                      (0.0, 1.0, 1.0), (1.0, 2.0, 0.5))


def _dispersion(k, r, h):
    return np.sqrt((h - np.cos(k)) ** 2 + (r * np.sin(k)) ** 2)


def xy_lnz_density(r: float, h: float, beta: float,
                   factor: float = DISPERSION_FACTOR) -> float:
    """ln Z / N of the XY chain in the thermodynamic limit."""
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    if beta == 0.0:
        return float(np.log(2.0))

    def f(k):
        return np.log(2.0 * np.cosh(beta * factor * _dispersion(k, r, h)))

    val, _ = quad(f, 0.0, np.pi, epsabs=QUAD_ABS_TOL, epsrel=1e-12, limit=200)
    return float(val / np.pi)


def xy_e0_density(r: float, h: float,
                  factor: float = DISPERSION_FACTOR) -> float:
    """Ground energy per site of the XY chain in the thermodynamic limit."""
    val, _ = quad(_dispersion, 0.0, np.pi, args=(r, h),
                  epsabs=QUAD_ABS_TOL, epsrel=1e-12, limit=200)
    return float(-factor * val / np.pi)


@lru_cache(maxsize=32)
def _finite_xy_spectrum(r: float, h: float, n: int) -> np.ndarray:
    """Sorted spectrum of the periodic XY ring of n >= 3 sites from its
    free-fermion solution (Lieb, Schultz & Mattis, Ann. Phys. 16, 407
    (1961)).

    Even fermion parity takes the antiperiodic momenta k = (2m+1)pi/n,
    odd parity the periodic ones k = 2 pi m/n.  With a = 2(h - cos k) and
    eps = 2 sqrt((h - cos k)^2 + r^2 sin^2 k), a pair (k, -k) adds
    a -+ eps at even occupation and a, a at odd; an unpaired k (0 or pi)
    adds 0 empty and a filled.  The constant is -h n.
    """
    if n < 3:
        raise ValueError("the free-fermion ring needs n >= 3 sites")
    levels = []
    for first in (1, 0):  # antiperiodic (even sector), then periodic
        # energies of the modes so far at even / odd occupation;
        # momentum k = pi j / n pairs j with 2n - j
        even, odd = np.zeros(1), np.zeros(0)
        for j in range(first, n + 1, 2):
            k = np.pi * j / n
            a = 2.0 * (h - np.cos(k))
            if j == 0 or j == n:
                add_even, add_odd = [0.0], [a]
            else:
                eps = 2.0 * np.hypot(h - np.cos(k), r * np.sin(k))
                add_even, add_odd = [a - eps, a + eps], [a, a]
            even, odd = (
                np.concatenate([np.add.outer(even, add_even).ravel(),
                                np.add.outer(odd, add_odd).ravel()]),
                np.concatenate([np.add.outer(even, add_odd).ravel(),
                                np.add.outer(odd, add_even).ravel()]))
        levels.append(even if first else odd)
    return np.sort(np.concatenate(levels)) - h * n


@lru_cache(maxsize=8)
def calibration_factor(n: int = 12,
                       probes: tuple = CALIBRATION_PROBES) -> float:
    """Least-squares fit of the dispersion factor against lnZ/N and E0/N
    of the exact finite-size spectrum at the probe points."""
    targets = []
    for (r, h, beta) in probes:
        spec = _finite_xy_spectrum(r, h, n)
        lnz, _, _ = gibbs_at(spec, beta)
        targets.append((r, h, beta, lnz / n, float(spec.min()) / n))

    def residuals(c):
        out = []
        for (r, h, beta, lnz_n, e0_n) in targets:
            out.append(xy_lnz_density(r, h, beta, factor=c[0]) - lnz_n)
            out.append(xy_e0_density(r, h, factor=c[0]) - e0_n)
        return out

    fit = least_squares(residuals, x0=[1.0], bounds=(0.1, 10.0))
    return float(fit.x[0])


def wei_alpha_density(r: float, h: float, xi_grid=None) -> float:
    """Conjectured density lim ln(alpha)/N of the best product overlap
    with the XY ground state.

    2 max_xi int_0^(1/2) ln|cos(th) cos^2(xi/2) + sin(th) sin^2(xi/2)
    cot(pi mu)| dmu with 2*th = atan2(r sin 2pi mu, h - cos 2pi mu).
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError("anisotropy r must lie in [0, 1]")

    # scalar math: quad calls this hundreds of thousands of times
    def integrand(mu, c2, s2):
        th = 0.5 * math.atan2(r * math.sin(2 * math.pi * mu),
                              h - math.cos(2 * math.pi * mu))
        arg = (math.cos(th) * c2
               + math.sin(th) * s2 / math.tan(math.pi * mu))
        return math.log(abs(arg)) if arg != 0.0 else -math.inf

    def value(xi):
        c2, s2 = math.cos(xi / 2) ** 2, math.sin(xi / 2) ** 2
        val, _ = quad(integrand, 0.0, 0.5, args=(c2, s2),
                      epsabs=QUAD_ABS_TOL, epsrel=1e-10, limit=400,
                      points=[1e-3])
        return 2.0 * val

    # value depends on xi only through cos^2(xi/2) and sin^2(xi/2), so
    # value(xi) = value(2 pi - xi): search [0, pi] at step pi/360
    if xi_grid is None:
        xi_grid = np.linspace(0.0, np.pi, 361)
    vals = np.array([value(xi) for xi in xi_grid])
    if not np.all(np.isfinite(vals)):
        raise FloatingPointError(
            "non-integrable log singularity in the overlap density "
            f"at (r={r}, h={h})")
    k = int(np.argmax(vals))
    span = abs(xi_grid[1] - xi_grid[0]) if len(xi_grid) > 1 else np.pi
    res = minimize_scalar(lambda xi: -value(xi),
                          bounds=(xi_grid[k] - span, xi_grid[k] + span),
                          method="bounded",
                          options={"xatol": 1e-10})
    best = max(float(-res.fun), float(vals[k]))
    return best


@dataclass
class Theorem3Region:
    """Detection-region data for the diagonal ground-state criterion."""

    r: float
    h_grid: np.ndarray
    t_grid: np.ndarray
    expression: np.ndarray  # shape (len(h_grid), len(t_grid))
    t_max: np.ndarray       # per h; nan where never positive
    conjecture_conditional: bool = True


def theorem3_expression(r: float, h: float, beta: float,
                        alpha_density: float = None) -> float:
    """(-ln alpha - beta E0 - ln Z)/N in the thermodynamic limit; > 0
    means the ground-state witness still detects at this temperature."""
    if alpha_density is None:
        alpha_density = wei_alpha_density(r, h)
    return (-alpha_density - beta * xy_e0_density(r, h)
            - xy_lnz_density(r, h, beta))


def theorem3_region(r: float, h_grid, t_grid,
                    bisect_iters: int = 60) -> Theorem3Region:
    """Grid of the detection expression over (h, T) and the maximal
    detection temperature per field value."""
    h_grid = np.asarray(h_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid <= 0):
        raise ValueError("temperatures must be positive")
    expr = np.zeros((h_grid.size, t_grid.size))
    t_max = np.full(h_grid.size, np.nan)
    for i, h in enumerate(h_grid):
        alpha = wei_alpha_density(r, h)
        e0 = xy_e0_density(r, h)

        def f(t):
            beta = 1.0 / t
            return -alpha - beta * e0 - xy_lnz_density(r, h, beta)

        expr[i] = [f(t) for t in t_grid]
        pos = expr[i] > 0
        if pos.any():
            last = np.nonzero(pos)[0][-1]
            if last == t_grid.size - 1:
                t_max[i] = t_grid[-1]
            else:
                lo, hi = t_grid[last], t_grid[last + 1]
                for _ in range(bisect_iters):
                    mid = 0.5 * (lo + hi)
                    if f(mid) > 0:
                        lo = mid
                    else:
                        hi = mid
                    if hi - lo < 1e-12 * max(1.0, hi):
                        break
                t_max[i] = 0.5 * (lo + hi)
    return Theorem3Region(r, h_grid, t_grid, expr, t_max)


def export_region_csv(region: Theorem3Region, path: str):
    """Contour data as CSV rows: r, h, T, expression, detected."""
    with open(path, "w") as f:
        f.write("# conjecture-conditional (product-overlap density)\n")
        f.write("r,h,T,expression,detected\n")
        for i, h in enumerate(region.h_grid):
            for j, t in enumerate(region.t_grid):
                v = region.expression[i, j]
                f.write(f"{region.r:.17g},{h:.17g},{t:.17g},{v:.17g},"
                        f"{int(v > 0)}\n")
