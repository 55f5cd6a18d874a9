"""Window edges of the witness path, located without bisection.

A gap scan's window edge lies between a grid row that it detects and the
next one, which it does not.  On the witness path every point nu = s >= 0
is one spectrum of H - sW, and that spectrum bounds the constrained entropy
at every energy: it certifies a whole interval of energies, not only the
one it was computed at.  So the edge is one maximization over s of the
farthest energy that s certifies, each evaluation one spectrum pass, where
bisection runs a dual solve per halving.  `dual.gap_energy_scan` calls
`witness_edge`; the SPG path, whose dual point is a matrix, bisects.
"""
from __future__ import annotations

import math

import numpy as np

from .limit import _minimize_bounded
from .thermo import entropy_slope

# an edge is bracketed to EDGE_ETOL of the spread; Brent's method on ln s
# stops within EDGE_UTOL, or sooner (see `witness_edge`)
EDGE_ETOL = 1e-11
EDGE_UTOL = 1e-6


class _Stop(Exception):
    """Ends the maximization of an edge search."""


def witness_edge(env, s_ref, linear: bool, gap_tol: float, e_in: float,
                 e_out: float, s_in: float, budget: int, verdict) -> float:
    """The window edge between e_in, which the scan detects at the point
    nu = s_in, and e_out, which it does not; `env` is the problem's
    `dual._Envelope`.

    A spectrum of H - sW certifies every energy E where the scan's test
    s_ref(E) - bound(s, E) > gap_tol holds, not only the one it was taken
    at.  phi(s), the energy farthest toward e_out that s certifies, needs
    no eigensolve beyond spec(H - sW): Newton's method in E on gap' =
    beta_H - beta_m (the impurity's -2b for the linear entropy), each
    `gibbs_newton` warm from the last, bisects where a step leaves its
    bracket or no slope exists.  Where s does not certify e_in, phi goes on
    past it by one Newton step, so that it rises toward the s that do.
    Brent's method maximizes phi over ln s, on a bracket found by halving s
    from s_in (the optimal s falls toward an edge, where the witness stops
    binding), or by doubling it; it stops once a new best phi gains less
    than the edge's tolerance.  The best phi less half that tolerance,
    checked by the scan's own test, is the edge.  `verdict(e)` then solves
    at the energy half a tolerance past that root, warm from its s, and
    returns (whether it detects, its point); where it detects, the search
    goes on from there.  No spectrum is computed once `budget` are, and no
    verdict follows, so that e_out stays the undetected side; the search
    makes at most `budget` rounds.  Returns the edge, a detected energy."""
    spec = env.problem.spectrum
    e0 = float(spec.min())
    x_h = spec - e0
    tol = EDGE_ETOL * max(float(spec.mean()) - e0, 1.0)
    sign = 1.0 if e_out > e_in else -1.0
    lo_e, hi_e = min(e_in, e_out), max(e_in, e_out)
    passes = env.passes
    beta_h = 0.0
    best = None  # (s, the root of its test) of the highest phi

    def phi(s):
        nonlocal beta_h, best
        if s not in env.spectra and env.passes - passes >= budget:
            raise _Stop
        w = env.spectrum(s)
        lo = float(w.min())
        x_m, beta_m = w - lo, 0.0

        def gap(e):  # the test's value above gap_tol, and its slope in e
            nonlocal beta_h, beta_m
            if env.certifies(e, s):  # s is a Farkas certificate at e
                return np.inf, np.nan
            s_h, d_h, beta_h = entropy_slope(x_h, e - e0, linear, beta_h)
            s_m, d_m, beta_m = entropy_slope(x_m, e - lo, linear, beta_m)
            return s_h - s_m - gap_tol, d_h - d_m

        t, (g, d) = e_in, gap(e_in)
        if not g > 0.0:
            return sign * e_in + (g / abs(d) if d else -np.inf)
        a, b = e_in, e_out  # the test holds at a and fails at b
        while True:
            step = -g / d if d else np.nan
            if abs(step) <= 0.1 * tol or abs(b - a) <= 0.1 * tol:
                break
            t = t + step
            if not min(a, b) < t < max(a, b):
                t = 0.5 * (a + b)
            g, d = gap(t)
            if g > 0.0:
                a = t
            else:
                b = t
        root = t + step
        if not min(a, b) <= root <= max(a, b):
            root = 0.5 * (a + b)
        if best is None or sign * root > sign * best[1]:
            gain = np.inf if best is None else sign * (root - best[1])
            best = (s, root)
            if gain < tol:
                raise _Stop
        return sign * root

    def maximize():
        (sa, fa), r = (s_in, phi(s_in)), 0.5
        sb = r * sa
        fb = phi(sb)
        if not fb > fa:
            r, (sa, fa), (sb, fb) = 2.0, (sb, fb), (sa, fa)
        while True:
            sc = r * sb
            if not 0.0 < sc < np.inf:  # ln s must stay finite
                raise _Stop
            fc = phi(sc)
            if not fc > fb:
                break
            sa, fa, sb, fb = sb, fb, sc, fc
        pts = sorted([(math.log(sb), -fb), (math.log(sa), -fa),
                      (math.log(sc), -fc)], key=lambda p: p[1])
        _minimize_bounded(lambda u: -phi(math.exp(u)),
                          *sorted((pts[1][0], pts[2][0])), EDGE_UTOL,
                          start=pts)

    edge = e_in
    for _ in range(budget):
        best = None
        try:
            maximize()
        except _Stop:
            pass
        if best is None:
            break
        s, root = best
        # the certified side of the root, and the side past it
        a, b = (min(max(root + k * sign * tol, lo_e), hi_e)
                for k in (-0.5, 0.5))
        if not s_ref(a) - env.bound(s, a, linear) > gap_tol:
            break
        edge = a
        if abs(e_out - a) <= tol or env.passes - passes >= budget:
            break
        env.s_last, env.move = s, 0.0
        detected, x = verdict(b)
        if not detected:
            break
        edge = e_in = b
        s_in = float(x[0])
    return float(edge)
