import csv

import numpy as np
import pytest

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


def test_overlap_density_xi_symmetry():
    grid = np.linspace(0.0, 2 * np.pi, 360, endpoint=False)
    a = wei_alpha_density(1.0, 0.5, xi_grid=grid)
    b = wei_alpha_density(1.0, 0.5, xi_grid=-grid)
    assert abs(a - b) < 1e-8


@pytest.mark.parametrize("r,h", [(1.0, 1.0), (1.0, 1.4), (0.5, 0.8)])
def test_overlap_density_half_period_grid_matches_full_period(r, h):
    full = np.linspace(0.0, 2 * np.pi, 720, endpoint=False)
    assert abs(wei_alpha_density(r, h)
               - wei_alpha_density(r, h, xi_grid=full)) < 1e-14


def test_overlap_density_rejects_non_finite_quadrature(monkeypatch):
    monkeypatch.setattr(limit, "quad", lambda *a, **k: (np.nan, 0.0))
    with pytest.raises(FloatingPointError):
        wei_alpha_density(1.0, 0.5)


def test_overlap_density_strong_field_vanishes():
    # the ground state approaches a product state for large h
    assert abs(wei_alpha_density(1.0, 100.0)) < 0.01


def test_overlap_density_regression_anchor():
    assert wei_alpha_density(1.0, 0.5) == pytest.approx(-0.00030025557,
                                                        abs=1e-9)


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
