import csv
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

import proxygap.limit as limit
from proxygap.limit import (calibration_factor, export_region_csv,
                            theorem3_expression, theorem3_region,
                            wei_alpha_density, xy_e0_density, xy_lnz_density,
                            _finite_xy_spectrum)
from proxygap.models import XYParams, heisenberg_sparse, \
    xy_params_as_heisenberg
from proxygap.thermo import gibbs_at


def test_lnz_infinite_temperature_is_ln2():
    assert xy_lnz_density(0.7, 0.3, 0.0) == pytest.approx(np.log(2), abs=1e-15)
    with pytest.raises(ValueError):
        xy_lnz_density(0.7, 0.3, -1.0)


def test_lnz_ising_zero_field_closed_form():
    # r = 1, h = 0: flat dispersion, lnZ/N = ln(2 cosh beta)
    for beta in (0.3, 1.0, 2.5):
        assert xy_lnz_density(1.0, 0.0, beta) == pytest.approx(
            np.log(2 * np.cosh(beta)), abs=1e-9)


def test_e0_closed_forms():
    assert xy_e0_density(1.0, 0.0) == pytest.approx(-1.0, abs=1e-9)
    # flat-band point h = 0, r = 0: eps = |cos k|, mean 2/pi
    assert xy_e0_density(0.0, 0.0) == pytest.approx(-2 / np.pi, abs=1e-9)
    # strong field: energy dominated by -h per site
    assert xy_e0_density(0.5, 50.0) / 50.0 == pytest.approx(-1.0, rel=1e-3)


def test_calibration_factor_near_unity():
    assert abs(calibration_factor(8) - 1.0) < 0.05


@pytest.mark.parametrize("r,h", [(1.0, 0.0), (1.0, 1.0), (0.5, 0.5),
                                 (0.0, 1.0), (1.0, 2.0), (0.3, 0.7),
                                 (0.0, 0.0)])
def test_free_fermion_spectrum_matches_dense(r, h):
    for n in range(3, 11):
        hs = heisenberg_sparse(xy_params_as_heisenberg(XYParams(n, r, h)))
        dense = np.linalg.eigvalsh(hs.toarray())
        np.testing.assert_allclose(_finite_xy_spectrum(r, h, n), dense,
                                   rtol=0, atol=1e-12)


def test_finite_size_lnz_converges_to_limit():
    beta = 1.0
    target = xy_lnz_density(1.0, 1.0, beta)
    errs = []
    for n in (6, 8, 10):
        spec = _finite_xy_spectrum(1.0, 1.0, n)
        errs.append(abs(gibbs_at(spec, beta)[0] / n - target))
    assert errs[0] > errs[1] > errs[2]
    target = xy_lnz_density(0.0, 1.0, beta)
    errs = []
    for n in (8, 10, 12, 14):
        spec = _finite_xy_spectrum(0.0, 1.0, n)
        errs.append(abs(gibbs_at(spec, beta)[0] / n - target))
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-2


def test_overlap_density_nonpositive_sampled():
    for (r, h) in [(1.0, 0.0), (1.0, 0.5), (0.5, 0.3), (0.8, 1.5)]:
        assert wei_alpha_density(r, h) <= 1e-12
    with pytest.raises(ValueError):
        wei_alpha_density(1.5, 0.0)


def _overlap_values(r, h, xi):
    xi = np.asarray(xi, dtype=float)
    return limit._overlap_integrals(r, h, np.cos(xi / 2) ** 2,
                                    np.sin(xi / 2) ** 2)


def test_overlap_density_xi_symmetry():
    # the value depends on xi only through cos^2(xi/2) and sin^2(xi/2)
    xi = np.array([0.3, 1.0, 2.0, 3.0])
    for r, h in [(1.0, 0.5), (0.5, 0.8)]:
        at = _overlap_values(r, h, xi)
        np.testing.assert_allclose(_overlap_values(r, h, -xi), at,
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(_overlap_values(r, h, 2 * np.pi - xi),
                                   at, rtol=0, atol=1e-14)


def _grid_search_alpha(r, h, xi_grid):
    # the reference search: every point of a fine xi grid in one batch,
    # and the best one refined by Brent's method, unseeded, within one
    # grid step
    vals = _overlap_values(r, h, xi_grid)
    k = int(np.argmax(vals))
    span = xi_grid[1] - xi_grid[0]
    _, best = limit._minimize_bounded(
        lambda xi: -float(_overlap_values(r, h, [xi])[0]),
        xi_grid[k] - span, xi_grid[k] + span, 1e-7)
    return max(-best, float(vals[k]))


@pytest.mark.parametrize("r,h", [(1.0, 1.0), (1.0, 1.4), (0.5, 0.8)])
def test_overlap_density_half_period_grid_matches_full_period(r, h):
    full = np.linspace(0.0, 2 * np.pi, 720, endpoint=False)
    assert abs(wei_alpha_density(r, h) - _grid_search_alpha(r, h, full)) \
        < 1e-14


@pytest.mark.parametrize("r", [0.0, 0.25, 0.5, 0.9, 1.0])
def test_overlap_density_matches_the_fine_grid_search(r):
    # the coarse grid and its seeded refinement find the maximum that a
    # 361-point grid on [0, pi] finds, across the critical field h = 1
    fine = np.linspace(0.0, np.pi, 361)
    for h in (-0.5, 0.3, 0.99, 1.0, 1.01, 1.4, 2.5, 5.0):
        assert abs(wei_alpha_density(r, h) - _grid_search_alpha(r, h, fine)) \
            < 1e-14, h


def test_overlap_density_rejects_non_finite_quadrature(monkeypatch):
    monkeypatch.setattr(limit, "_quad_batch",
                        lambda f, breaks, n: np.full(n, np.nan))
    with pytest.raises(FloatingPointError):
        wei_alpha_density(1.0, 0.5)


def test_overlap_density_rejects_non_finite_refinement(monkeypatch):
    # the grid's batch is finite; a single-xi refinement value is not
    overlap_integrals = limit._overlap_integrals

    def nan_on_one_xi(r, h, c2, s2):
        vals = overlap_integrals(r, h, c2, s2)
        return np.full(1, np.nan) if vals.size == 1 else vals

    monkeypatch.setattr(limit, "_overlap_integrals", nan_on_one_xi)
    with pytest.raises(FloatingPointError):
        wei_alpha_density(1.0, 1.0)


# reference integrals: scipy's adaptive quad, told where the kinks, jumps
# and log singularities are, at tolerances far below the tested 1e-10
def _ref_quad(f, a, b, points=None):
    return quad(f, a, b, points=points, epsabs=1e-14, epsrel=1e-14,
                limit=1000)[0]


def _ref_dispersion(k, r, h):
    return math.hypot(h - math.cos(k), r * math.sin(k))


def _ref_lnz(r, h, beta):
    pts = [math.acos(h)] if abs(h) < 1 and r == 0 else None
    return _ref_quad(lambda k: np.logaddexp(
        beta * _ref_dispersion(k, r, h), -beta * _ref_dispersion(k, r, h)),
        0.0, math.pi, pts) / math.pi


def _ref_e0(r, h):
    pts = [math.acos(h)] if abs(h) < 1 and r == 0 else None
    return -_ref_quad(lambda k: _ref_dispersion(k, r, h), 0.0, math.pi,
                      pts) / math.pi


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("r,h", [(0.0, 0.3), (0.0, -0.6), (0.0, 0.95),
                                 (0.0, 1.0), (0.5, 1.0), (1.0, 1.0)])
def test_xy_densities_match_scipy_quad(r, h):
    # r = 0 with |h| < 1: eps(k) = |h - cos k| has an interior kink;
    # h = 1 is critical, and eps vanishes at k = 0
    for beta in (0.5, 5.0, 30.0, 100.0):
        assert abs(xy_lnz_density(r, h, beta) - _ref_lnz(r, h, beta)) \
            <= 1e-10
    assert abs(xy_e0_density(r, h) - _ref_e0(r, h)) <= 1e-10


def _overlap_arg(mu, r, h, c2, s2):
    th = 0.5 * math.atan2(r * math.sin(2 * math.pi * mu),
                          h - math.cos(2 * math.pi * mu))
    return math.cos(th) * c2 + math.sin(th) * s2 / math.tan(math.pi * mu)


def _ref_overlap(r, h, c2, s2, points):
    return 2.0 * _ref_quad(
        lambda mu: math.log(abs(_overlap_arg(mu, r, h, c2, s2))),
        0.0, 0.5, points + [1e-3])


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("r,h,c2,s2", [(1.0, 0.5, 1.0, -0.5),
                                       (0.5, 0.8, 0.7, -0.3),
                                       (1.0, 1.4, 0.2, -1.0),
                                       (0.3, 0.2, 1.0, -2.0)])
def test_overlap_integral_with_interior_zero_matches_scipy_quad(r, h, c2,
                                                                s2):
    # for c2 > 0 > s2 the argument runs from -inf at mu = 0 to c2 at
    # mu = 1/2: one interior zero, a log singularity inside the interval
    def arg(mu):
        return _overlap_arg(mu, r, h, c2, s2)

    grid = np.linspace(1e-6, 0.5 - 1e-9, 2001)
    vals = [arg(mu) for mu in grid]
    zeros = [brentq(arg, a, b, xtol=1e-15)
             for a, b, fa, fb in zip(grid, grid[1:], vals, vals[1:])
             if fa * fb < 0]
    assert len(zeros) == 1
    got = limit._overlap_integrals(r, h, [c2], [s2])[0]
    assert abs(got - _ref_overlap(r, h, c2, s2, zeros)) <= 1e-10


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("r,h,xi", [(0.0, 0.5, 1.0), (0.0, -0.3, 0.7),
                                    (1.0, 0.5, 1.3), (1.0, 1.0, 2.0)])
def test_overlap_integral_matches_scipy_quad(r, h, xi):
    # r = 0: th jumps from pi/2 to 0 where cos 2 pi mu = h
    c2, s2 = math.cos(xi / 2) ** 2, math.sin(xi / 2) ** 2
    jump = [math.acos(h) / (2 * math.pi)] if r == 0 else []
    got = limit._overlap_integrals(r, h, [c2], [s2])[0]
    assert abs(got - _ref_overlap(r, h, c2, s2, jump)) <= 1e-10


def test_quad_batch_integrates_each_integrand_apart():
    powers = np.arange(5.0)
    got = limit._quad_batch(lambda i, x: x ** powers[i, None], (0.0, 2.0),
                            powers.size)
    np.testing.assert_allclose(got, 2.0 ** (powers + 1) / (powers + 1),
                               rtol=1e-14)
    # a log singularity at an end point, bisected until the summed error
    # estimate is below the tolerance
    got = limit._quad_batch(lambda i, x: np.log(x), (0.0, 1.0), 1)[0]
    assert abs(got + 1.0) <= limit.QUAD_ABS_TOL


def test_quad_batch_stops_non_finite_integrals_and_caps_intervals():
    def f(i, x):
        return np.where(i[:, None] == 0, np.nan, np.cos(x))

    got = limit._quad_batch(f, (0.0, 1.0), 2)
    assert np.isnan(got[0]) and got[1] == pytest.approx(math.sin(1.0))
    with pytest.raises(RuntimeError, match="intervals"):
        limit._quad_batch(lambda i, x: 1.0 / x, (0.0, 1.0), 1)


def _counted(f):
    calls = []

    def g(x):
        calls.append(x)
        return f(x)
    return g, calls


def test_minimize_bounded_finds_interior_and_edge_minima():
    x, fx = limit._minimize_bounded(lambda x: (x - 0.3) ** 2 + 1.0,
                                    -1.0, 2.0, 1e-10)
    assert abs(x - 0.3) < 1e-7 and fx == pytest.approx(1.0, abs=1e-14)
    x, _ = limit._minimize_bounded(lambda x: x, 0.1, 10.0, 1e-10)
    assert abs(x - 0.1) < 1e-7
    # seeded with three points already evaluated, x the least and w the
    # next: the same minimum, in no more evaluations than unseeded
    for f, lo, hi, seed, want in [
            (lambda x: (x - 0.3) ** 2 + 1.0, 0.0, 0.5, (0.25, 0.5, 0.0), 0.3),
            (lambda x: x, 0.1, 10.0, (0.1, 5.0, 10.0), 0.1)]:
        g, unseeded = _counted(f)
        x, fx = limit._minimize_bounded(g, lo, hi, 1e-10)
        assert abs(x - want) < 1e-7
        g, seeded = _counted(f)
        start = tuple((p, f(p)) for p in seed)
        x, fx = limit._minimize_bounded(g, lo, hi, 1e-10, start)
        assert abs(x - want) < 1e-7 and fx == f(x)
        assert len(seeded) <= len(unseeded)


def test_overlap_density_strong_field_vanishes():
    # the ground state approaches a product state for large h
    assert abs(wei_alpha_density(1.0, 100.0)) < 0.01


def test_overlap_density_regression_anchor():
    assert wei_alpha_density(1.0, 0.5) == pytest.approx(-0.00030025557,
                                                        abs=1e-9)


# wei_alpha_density as computed with the refinement's former 1e-10 xi
# tolerance; 1e-7 moves it by at most 1.4e-16
@pytest.mark.parametrize("r,h,value", [(1.0, 0.5, -0.0003002555713176626),
                                       (1.0, 1.0, -0.02157705052654029),
                                       (1.0, 1.1, -0.06121202131615934),
                                       (1.0, 1.4, -0.038026524269839365),
                                       (1.0, 2.0, -0.016872636732910493),
                                       (0.5, 0.8, -0.0003839689841935133)])
def test_overlap_density_pinned(r, h, value):
    assert abs(wei_alpha_density(r, h) - value) <= 1e-14


@pytest.mark.parametrize("h", [1.0, 1.4])
def test_region_takes_few_quadrature_passes(monkeypatch, h):
    # the bench region (bench/configs/thermo-limit.json): the xi
    # refinement stops at the value's precision and T_max closes its
    # bracket from both ends
    calls = []
    quad_batch = limit._quad_batch

    def counted(f, breaks, n):
        calls.append(n)
        return quad_batch(f, breaks, n)

    monkeypatch.setattr(limit, "_quad_batch", counted)
    wei_alpha_density(1.0, h)
    refinement = len(calls) - 1  # after the grid's batch
    assert refinement <= 8
    del calls[:]
    theorem3_region(1.0, [h], [0.05, 0.1, 0.2, 0.5, 1.0, 2.0])
    # alpha, E0 and the temperature grid come before the T_max passes
    assert len(calls) - (refinement + 1) - 2 <= 8


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("r,h", [(1.0, 1.0), (1.0, 1.4), (0.5, 0.8)])
def test_lnz_slope_matches_central_differences(r, h):
    # f'(beta) = -E0/N - d(lnZ/N)/dbeta; at beta = 50 and h = 1.4 every
    # c beta eps exceeds 19, where 1 - tanh rounds to 0, and at beta = 200
    # e^(2 c beta eps) overflows
    betas = np.array([0.5, 5.0, 50.0, 200.0])
    lnz, slope = limit._lnz_slope_integrals(r, h, betas)
    e0 = xy_e0_density(r, h)
    for beta, lz, s in zip(betas, lnz / np.pi, slope / np.pi):
        assert lz == pytest.approx(xy_lnz_density(r, h, beta), rel=1e-14)
        step = 1e-4 * beta
        diff = (xy_lnz_density(r, h, beta + step)
                - xy_lnz_density(r, h, beta - step)) / (2 * step)
        assert abs(s - (-e0 - diff)) <= 1e-7
        assert s > 0


def _bisect_t_max(r, h, lo, hi):
    # the oracle: bisect the expression in T until no double lies between
    alpha = wei_alpha_density(r, h)
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if theorem3_expression(r, h, 1.0 / mid, alpha_density=alpha) > 0:
            lo = mid
        else:
            hi = mid


@pytest.mark.parametrize("r,h", [(1.0, 0.5), (1.0, 1.0), (1.0, 1.4),
                                 (0.5, 0.8)])
def test_t_max_brackets_the_sign_change(r, h):
    t_grid = np.geomspace(1e-3, 4.0, 25)
    tm = theorem3_region(r, [h], t_grid).t_max[0]
    assert t_grid[0] < tm < t_grid[-1]
    alpha = wei_alpha_density(r, h)
    assert theorem3_expression(r, h, 1.0 / (tm * (1 - 1e-10)),
                               alpha_density=alpha) > 0
    assert theorem3_expression(r, h, 1.0 / (tm * (1 + 1e-10)),
                               alpha_density=alpha) <= 0
    j = np.searchsorted(t_grid, tm)
    want = _bisect_t_max(r, h, t_grid[j - 1], t_grid[j])
    assert abs(tm - want) <= 1e-11 * want


def test_t_max_at_the_grid_ends():
    # t_max(h = 0.5) = 0.166 and t_max(h = 1.4) = 0.614 at r = 1: the
    # first field never detects on this grid, the second detects on all of it
    region = theorem3_region(1.0, [0.5, 1.4], [0.2, 0.3, 0.5])
    assert np.isnan(region.t_max[0]) and np.all(region.expression[0] <= 0)
    assert region.t_max[1] == 0.5 and np.all(region.expression[1] > 0)


def test_theorem3_expression_composition():
    r, h, beta, alpha = 1.0, 0.5, 2.0, -0.002
    direct = (-alpha - beta * xy_e0_density(r, h)
              - xy_lnz_density(r, h, beta))
    assert theorem3_expression(r, h, beta, alpha_density=alpha) == \
        pytest.approx(direct, abs=1e-12)


def test_region_detects_near_critical_ising(tmp_path):
    h_grid = np.array([0.5, 1.0])
    t_grid = np.array([0.01, 0.05, 0.1, 0.5, 1.0])
    region = theorem3_region(1.0, h_grid, t_grid)
    assert region.conjecture_conditional
    assert region.expression.shape == (2, 5)
    # the ground-state witness detects at small positive temperature
    assert np.all(np.nan_to_num(region.t_max) > 0)
    # once the expression turns negative it stays negative at higher T
    for i in range(h_grid.size):
        tm = region.t_max[i]
        if np.isnan(tm):
            continue
        assert np.all(region.expression[i, t_grid > tm] <= 0)
        assert np.all(region.expression[i, t_grid < tm] > 0)
        if tm < t_grid[-1]:
            assert abs(theorem3_expression(1.0, h_grid[i], 1.0 / tm)) < 1e-6

    path = tmp_path / "region.csv"
    export_region_csv(region, str(path))
    with open(path) as f:
        assert f.readline().startswith("#")
        rows = list(csv.DictReader(f))
    assert len(rows) == 10
    for row in rows:
        v = float(row["expression"])
        assert int(row["detected"]) == int(v > 0)


def test_region_rejects_nonpositive_temperature():
    with pytest.raises(ValueError):
        theorem3_region(1.0, [0.5], [0.0, 1.0])


@pytest.mark.parametrize("r,h,t", [(1.0, 0.5, np.nan), (1.0, 0.5, np.inf),
                                   (1.0, np.inf, 1.0), (1.0, np.nan, 1.0),
                                   (np.nan, 0.5, 1.0)])
def test_region_rejects_non_finite_inputs(r, h, t):
    with pytest.raises(ValueError, match="finite"):
        theorem3_region(r, [h], [0.1, t])
