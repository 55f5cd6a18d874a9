"""Thermodynamic-limit densities for the XY chain and the detection
region of the diagonal ground-state-witness criterion.

The chain is H = -sum_i ((1+r)/2 XX + (1-r)/2 YY + h Z) with dispersion
eps(k) = sqrt((h - cos k)^2 + r^2 sin^2 k); per-site quantities are

    lnZ/N -> (1/pi) int_0^pi ln(2 cosh(c*beta*eps(k))) dk
    E0/N  -> -(c/pi) int_0^pi eps(k) dk

with the overall factor c frozen to the value that best fits the exact
finite-size spectrum: `calibration_factor` minimizes the summed squared
misfit over c in [0.1, 10] with a bounded 1-D search.  The product-overlap
density ln(alpha)/N uses a conjectured closed form; results depending on
it are conjecture-conditional.

Every integral runs through `_quad_batch`, an adaptive 15-point
Gauss-Kronrod rule that integrates a batch of integrands in numpy array
passes.  The overlap density integrates a 13-point xi grid in one batch
and refines the grid's best point by Brent's method, whose first step is
the parabola through that point and its two neighbours.

The detection expression f(beta) = -ln(alpha)/N - beta E0/N - lnZ/N is
increasing and concave in beta (lnZ is convex), with slope
f'(beta) = (c/pi) int eps (1 - tanh(c beta eps)) dk >= 0.  So a Newton
step lands on the undetected side of the root and a chord across a bracket
on the detected side: `theorem3_region` closes each T_max bracket from
both ends with one quadrature batch per pass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .thermo import gibbs_at

# frozen by calibration against the exact N=12 spectrum; the fit
# returns 1 to three digits (the dispersion above is the single-particle
# energy in the same units as the Hamiltonian)
DISPERSION_FACTOR = 1.0

QUAD_ABS_TOL = 1e-10
QUAD_MAX_INTERVALS = 400  # per integral; more raises
T_MAX_NEWTON_PASSES = 60  # cap on the quadrature passes of each T_max

CALIBRATION_PROBES = ((1.0, 0.0, 1.0), (1.0, 1.0, 1.0), (0.5, 0.5, 2.0),
                      (0.0, 1.0, 1.0), (1.0, 2.0, 0.5))

# the overlap integrand's first intervals, graded toward its log
# singularity at mu = 0 (for h <= 1), so that no pass is spent halving
# down to it
_OVERLAP_BREAKS = (0.0,) + tuple(10.0 ** -k for k in range(12, 2, -1)) + (0.5,)

# the overlap density's coarse xi grid on [0, pi], step pi/12
_XI_GRID = np.linspace(0.0, np.pi, 13)

# the 15-point Gauss-Kronrod rule on [-1, 1] and its embedded 7-point
# Gauss rule (Piessens et al., QUADPACK, Springer 1983: qk15)
_XGK = np.array([0.991455371120812639206854697526329,
                 0.949107912342758524526189684047851,
                 0.864864423359769072789712788640926,
                 0.741531185599394439863864773280788,
                 0.586087235467691130294144845693013,
                 0.405845151377397166906606412076961,
                 0.207784955007898467600689403773245])
_WGK = np.array([0.022935322010529224963732008058970,
                 0.063092092629978553290700663189204,
                 0.104790010322250183839876322541518,
                 0.140653259715525918745189590510238,
                 0.169004726639267902826583426598550,
                 0.190350578064785409913256402421014,
                 0.204432940075298892414161999234649,
                 0.209482141084727828012999174891714])
_WG = np.array([0.129484966168869693270611432679082,
                0.279705391489276667901467771423780,
                0.381830050505118944950369775488975,
                0.417959183673469387755102040816327])
_NODES = np.concatenate([-_XGK, [0.0], _XGK[::-1]])
_W_KRONROD = np.concatenate([_WGK, _WGK[-2::-1]])
_W_GAUSS = np.zeros(15)
_W_GAUSS[1:14:2] = np.concatenate([_WG, _WG[-2::-1]])


def _gk15(f, owner, lo, hi):
    """Kronrod value and QUADPACK error estimate of each interval
    [lo_j, hi_j] of integral owner_j; f(owner, x) takes nodes x of shape
    (intervals, 15)."""
    half = 0.5 * (hi - lo)
    fv = f(owner, (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES)
    kron = fv @ _W_KRONROD
    err = np.abs(half * (kron - fv @ _W_GAUSS))
    asc = np.abs(half) * (np.abs(fv - 0.5 * kron[:, None]) @ _W_KRONROD)
    scaled = asc * np.minimum(1.0, (200.0 * err / np.where(asc > 0, asc, 1.0))
                              ** 1.5)
    err = np.where((asc > 0) & (err > 0), scaled, err)
    floor = 50.0 * np.finfo(float).eps * np.abs(half) * \
        (np.abs(fv) @ _W_KRONROD)
    return half * kron, np.maximum(err, floor)


def _quad_batch(f, breaks, n: int) -> np.ndarray:
    """int f_i over [breaks[0], breaks[-1]] for i < n, all in one array
    pass per refinement: f(owner, x) evaluates integrand owner_j at the
    nodes x[j] (shape (intervals, 15)).

    Each integral starts on the intervals between `breaks` and stops once
    the sum of its intervals' error estimates is at most QUAD_ABS_TOL; until
    then each pass bisects its worst intervals, as many as that sum needs
    beyond QUAD_ABS_TOL.  An integral whose estimate is not finite stops
    at once with its non-finite value.  Raises RuntimeError where an
    integral needs more than QUAD_MAX_INTERVALS intervals."""
    breaks = np.asarray(breaks, dtype=float)
    owner = np.repeat(np.arange(n), breaks.size - 1)
    lo, hi = np.tile(breaks[:-1], n), np.tile(breaks[1:], n)
    val, err = _gk15(f, owner, lo, hi)
    out = np.zeros(n)
    while True:
        total = np.bincount(owner, err, n)
        done = ~(total > QUAD_ABS_TOL)  # also where the estimate is nan
        finished = done[owner]
        out += np.bincount(owner[finished], val[finished], n)
        owner, lo, hi, val, err = (a[~finished]
                                   for a in (owner, lo, hi, val, err))
        if not owner.size:
            return out
        if np.bincount(owner).max() > QUAD_MAX_INTERVALS:
            raise RuntimeError(
                f"quadrature needs more than {QUAD_MAX_INTERVALS} intervals "
                f"for an error estimate below {QUAD_ABS_TOL}")
        # per integral, worst first: split while the rest exceeds the tol
        order = np.lexsort((-err, owner))
        o, e = owner[order], err[order]
        before = np.cumsum(e) - e
        first = np.searchsorted(o, o)  # each integral's start in `order`
        split = np.zeros(owner.size, dtype=bool)
        split[order] = total[o] - (before - before[first]) > QUAD_ABS_TOL
        mid = 0.5 * (lo[split] + hi[split])
        halves = (np.tile(owner[split], 2), np.concatenate([lo[split], mid]),
                  np.concatenate([mid, hi[split]]))
        halves += _gk15(f, *halves)
        owner, lo, hi, val, err = (
            np.concatenate([a[~split], b])
            for a, b in zip((owner, lo, hi, val, err), halves))


def _minimize_bounded(f, lo: float, hi: float, xatol: float, start=None):
    """(x, f(x)) at a local minimum of f on [lo, hi]: Brent's method,
    golden-section steps safeguarding parabolic ones (Brent, Algorithms
    for Minimization without Derivatives, 1973, ch. 5), stopped when the
    bracket around x is within 2 (sqrt(eps) |x| + xatol / 3).

    Without `start` the search begins with one evaluation at the golden
    section of [lo, hi].  `start` = ((x, fx), (w, fw), (v, fv)) gives three
    points already evaluated in [lo, hi], x the least and w the next; the
    first step is then the parabola's vertex through them."""
    sqrt_eps = math.sqrt(2.2e-16)
    golden = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    if start is None:
        x = w = v = a + golden * (b - a)
        fx = fw = fv = f(x)
        d = e = 0.0
    else:
        (x, fx), (w, fw), (v, fv) = start
        d = e = b - a  # admit a parabolic first step
    while True:
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(x) + xatol / 3.0
        tol2 = 2.0 * tol1
        if abs(x - xm) <= tol2 - 0.5 * (b - a):
            return x, fx
        parabolic = False
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev, e = e, d
            if (abs(p) < abs(0.5 * q * e_prev)
                    and q * (a - x) < p < q * (b - x)):
                parabolic = True
                d = p / q
                if (x + d - a) < tol2 or (b - x - d) < tol2:
                    d = tol1 if xm >= x else -tol1
        if not parabolic:
            e = (a if x >= xm else b) - x
            d = golden * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = f(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def _dispersion(k, r, h):
    return np.sqrt((h - np.cos(k)) ** 2 + (r * np.sin(k)) ** 2)


def xy_lnz_density(r: float, h: float, beta: float,
                   factor: float = DISPERSION_FACTOR) -> float:
    """ln Z / N of the XY chain in the thermodynamic limit."""
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    if beta == 0.0:
        return float(np.log(2.0))
    lnz, _ = _lnz_slope_integrals(r, h, np.array([beta]), factor)
    return float(lnz[0] / np.pi)


def _lnz_slope_integrals(r: float, h: float, betas: np.ndarray,
                         factor: float = DISPERSION_FACTOR):
    """(pi lnZ/N, pi d/dbeta (-beta E0/N - lnZ/N)) at each of `betas`, in
    one quadrature batch.  With x = c beta eps, the slope integrand
    c eps (1 - tanh x) is taken as 2 c eps e^(-2x) / (1 + e^(-2x)), which
    neither overflows nor rounds to 0 where tanh x rounds to 1."""
    n = betas.size

    def f(owner, k):
        eps = _dispersion(k, r, h)
        x = (betas[owner % n] * factor)[:, None] * eps
        decay = np.exp(-2.0 * x)
        # ln(2 cosh x) for the first n integrals, the slope for the rest
        return np.where((owner < n)[:, None], np.logaddexp(x, -x),
                        2.0 * factor * eps * decay / (1.0 + decay))

    both = _quad_batch(f, (0.0, np.pi), 2 * n)
    return both[:n], both[n:]


def xy_e0_density(r: float, h: float,
                  factor: float = DISPERSION_FACTOR) -> float:
    """Ground energy per site of the XY chain in the thermodynamic limit."""
    val = _quad_batch(lambda _, k: _dispersion(k, r, h), (0.0, np.pi), 1)[0]
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
    """Least-squares fit of the dispersion factor c in [0.1, 10] against
    lnZ/N and E0/N of the exact finite-size spectrum at the probe
    points."""
    targets = []
    for (r, h, beta) in probes:
        spec = _finite_xy_spectrum(r, h, n)
        lnz, _, _ = gibbs_at(spec, beta)
        # E0/N of the limit is linear in c: integrate it once
        targets.append((r, h, beta, lnz / n, xy_e0_density(r, h),
                        float(spec.min()) / n))

    def squares(c):
        return sum((xy_lnz_density(r, h, beta, factor=c) - lnz_n) ** 2
                   + (c * e0_lim - e0_n) ** 2
                   for (r, h, beta, lnz_n, e0_lim, e0_n) in targets)

    return float(_minimize_bounded(squares, 0.1, 10.0, 1e-10)[0])


def _overlap_integrals(r: float, h: float, c2, s2) -> np.ndarray:
    """2 int_0^(1/2) ln|cos(th) c2 + sin(th) s2 cot(pi mu)| dmu for each
    pair (c2, s2), with 2*th = atan2(r sin 2pi mu, h - cos 2pi mu)
    evaluated once per node array."""
    c2, s2 = np.asarray(c2, dtype=float), np.asarray(s2, dtype=float)

    def f(owner, mu):
        th = 0.5 * np.arctan2(r * np.sin(2 * np.pi * mu),
                              h - np.cos(2 * np.pi * mu))
        arg = (np.cos(th) * c2[owner, None]
               + np.sin(th) * s2[owner, None] / np.tan(np.pi * mu))
        with np.errstate(divide="ignore"):
            return np.log(np.abs(arg))

    return 2.0 * _quad_batch(f, _OVERLAP_BREAKS, c2.size)


def wei_alpha_density(r: float, h: float) -> float:
    """Conjectured density lim ln(alpha)/N of the best product overlap
    with the XY ground state.

    2 max_xi int_0^(1/2) ln|cos(th) cos^2(xi/2) + sin(th) sin^2(xi/2)
    cot(pi mu)| dmu with 2*th = atan2(r sin 2pi mu, h - cos 2pi mu).

    The value depends on xi only through cos^2(xi/2) and sin^2(xi/2), so
    value(-xi) = value(xi) = value(2 pi - xi): one batch integrates the
    grid _XI_GRID on [0, pi], and Brent's method refines xi to 1e-7 within
    one grid step of the grid's best point, starting from the parabola
    through it and its two neighbours (beyond 0 or pi, the mirror of the
    inner one).  The value is stationary at its maximum, so 1e-7 moves it
    by about |value''| 1e-14 / 2, below its quadrature's precision.
    Raises FloatingPointError where any integral evaluated is not finite.
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError("anisotropy r must lie in [0, 1]")

    def values(xi):
        vals = _overlap_integrals(r, h, np.cos(xi / 2) ** 2,
                                  np.sin(xi / 2) ** 2)
        if not np.all(np.isfinite(vals)):
            raise FloatingPointError(
                "non-integrable log singularity in the overlap density "
                f"at (r={r}, h={h})")
        return vals

    vals = values(_XI_GRID)
    k = int(np.argmax(vals))
    xi, step = _XI_GRID[k], _XI_GRID[1]
    # the neighbours; beyond 0 or pi, the mirror of the inner one
    left = (xi - step, -(vals[k - 1] if k > 0 else vals[1]))
    right = (xi + step, -(vals[k + 1] if k < vals.size - 1 else vals[-2]))
    w, v = sorted((left, right), key=lambda p: p[1])
    _, best = _minimize_bounded(lambda x: -float(values(np.array([x]))[0]),
                                xi - step, xi + step, 1e-7,
                                ((xi, -vals[k]), w, v))
    return float(-best)


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


def theorem3_region(r: float, h_grid, t_grid) -> Theorem3Region:
    """Grid of the detection expression over (h, T) and the maximal
    detection temperature per field value.

    t_max is the last grid T where the expression is positive, or, where
    it turns nonpositive at the next grid T, the midpoint of a T bracket
    narrower than 1e-12 max(1, T) with the expression positive at its low
    end and nonpositive at its high end; nan where it is never positive.
    The bracket closes in beta = 1/T: each pass integrates lnZ and the
    slope at two points in one batch, a Newton step from the undetected
    end (which f's concavity keeps on that side) and the chord across the
    bracket (which it keeps on the detected side), each replaced by the
    bracket's midpoint where it does not fall strictly inside.  Once the
    two lie within half the target width of each other, the pass
    evaluates two points that straddle them at that half width.

    Raises ValueError where r, a field or a temperature is not finite, or
    a temperature is not positive."""
    h_grid = np.asarray(h_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    if not (math.isfinite(r) and np.all(np.isfinite(h_grid))
            and np.all(np.isfinite(t_grid))):
        raise ValueError("r, fields and temperatures must be finite")
    if np.any(t_grid <= 0):
        raise ValueError("temperatures must be positive")
    expr = np.zeros((h_grid.size, t_grid.size))
    t_max = np.full(h_grid.size, np.nan)
    betas = 1.0 / t_grid
    for i, h in enumerate(h_grid):
        alpha = wei_alpha_density(r, h)
        e0 = xy_e0_density(r, h)
        lnz, slope = _lnz_slope_integrals(r, h, betas)
        expr[i] = -alpha - betas * e0 - lnz / np.pi
        pos = expr[i] > 0
        if not pos.any():
            continue
        last = np.nonzero(pos)[0][-1]
        if last == t_grid.size - 1:
            t_max[i] = t_grid[-1]
            continue
        # f(lo) <= 0 < f(hi) in beta; d_lo = f'(lo)
        lo, f_lo, d_lo = betas[last + 1], expr[i, last + 1], \
            slope[last + 1] / np.pi
        hi, f_hi = betas[last], expr[i, last]
        for _ in range(T_MAX_NEWTON_PASSES):
            if 1.0 / lo - 1.0 / hi < 1e-12 * max(1.0, 1.0 / lo):
                break
            width = 1e-12 * max(1.0, 1.0 / lo) * lo * hi  # that, in beta
            mid = 0.5 * (lo + hi)
            newton = lo - f_lo / d_lo if d_lo > 0 else mid
            chord = lo - f_lo * (hi - lo) / (f_hi - f_lo)
            x = [p if lo < p < hi else mid for p in (newton, chord)]
            if abs(x[1] - x[0]) < 0.5 * width:
                # the root lies between them: straddle it
                c = 0.5 * (x[0] + x[1])
                x = [p for p in (c - 0.25 * width, c + 0.25 * width)
                     if lo < p < hi] or [mid]
            x = np.array(x)
            lnz, slope = _lnz_slope_integrals(r, h, x)
            for b, fb, db in zip(x, -alpha - x * e0 - lnz / np.pi,
                                 slope / np.pi):
                if fb > 0:
                    if b < hi:
                        hi, f_hi = b, fb
                elif b > lo:
                    lo, f_lo, d_lo = b, fb, db
        t_max[i] = 0.5 * (1.0 / lo + 1.0 / hi)
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
