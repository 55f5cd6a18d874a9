import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from proxygap.models import HeisenbergParams, heisenberg_chain
from proxygap.thermo import (beta_from_energy, energy_range, gibbs_at,
                             linear_entropy_max, linear_entropy_max_weights)

spectra = st.lists(st.floats(-50, 50, allow_nan=False), min_size=2,
                   max_size=12).filter(lambda w: max(w) - min(w) > 1e-3)


def test_gibbs_infinite_temperature():
    w = np.array([-1.0, 0.0, 2.0, 5.0])
    lnz, e, s = gibbs_at(w, 0.0)
    assert abs(lnz - np.log(4)) < 1e-12
    assert abs(e - w.mean()) < 1e-12
    assert abs(s - np.log(4)) < 1e-12


def test_gibbs_zero_temperature_limit():
    w = np.array([0.0, 1.0, 2.0])
    lnz, e, s = gibbs_at(w, 1e4)
    assert abs(e) < 1e-12
    assert s < 1e-10


def test_gibbs_rejects_bad_input():
    with pytest.raises(ValueError):
        gibbs_at([], 1.0)
    with pytest.raises(ValueError):
        gibbs_at([0.0, 1.0], -0.5)


@settings(max_examples=40, deadline=None)
@given(spectra, st.floats(0.0, 20.0))
def test_gibbs_shift_invariance(w, beta):
    w = np.asarray(w)
    lnz0, e0, s0 = gibbs_at(w, beta)
    lnz1, e1, s1 = gibbs_at(w + 3.7, beta)
    assert abs(s1 - s0) < 1e-8
    assert abs((e1 - e0) - 3.7) < 1e-8


@settings(max_examples=40, deadline=None)
@given(spectra, st.floats(0.01, 0.99))
def test_beta_energy_roundtrip(w, frac):
    w = np.asarray(w)
    e0, e_inf = energy_range(w)
    e = e0 + frac * (e_inf - e0)
    beta = beta_from_energy(w, e)
    if beta < 1e6:  # saturated solves are clamped, skip the roundtrip
        assert abs(gibbs_at(w, beta)[1] - e) < 1e-6 * max(1.0, abs(e))


def test_beta_from_energy_matches_scipy_brentq_bit_for_bit():
    # the same bracket and tolerances as beta_from_energy, solved by scipy
    rng = np.random.default_rng(2024)
    for trial in range(60):
        w = rng.normal(size=int(rng.integers(2, 120))) \
            * rng.uniform(0.01, 50.0)
        if trial % 3 == 0:
            w = np.round(w)  # degenerate levels
        e0, e_inf = energy_range(w)
        spread = e_inf - e0
        for frac in (1e-9, 1e-6, 1e-3, 0.2, 0.5, 0.8, 1 - 1e-6, 1 - 1e-12):
            e = e0 + frac * spread

            def f(beta):
                return gibbs_at(w, beta)[1] - e

            hi = 1.0
            while f(hi) > 0 and hi <= 1e6:
                hi *= 4.0
            if hi > 1e6:
                expect = 1e6
            else:
                expect = brentq(f, 0.0, hi,
                                xtol=1e-12 * max(1.0, 1.0 / spread),
                                rtol=4 * np.finfo(float).eps, maxiter=200)
            assert beta_from_energy(w, e) == expect


def test_beta_from_energy_rejects_out_of_range():
    w = np.array([0.0, 1.0])
    with pytest.raises(ValueError):
        beta_from_energy(w, 0.9)  # above the infinite-temperature mean
    with pytest.raises(ValueError):
        beta_from_energy(w, -0.5)


def _entropy_at_energy(w, e):
    return gibbs_at(w, beta_from_energy(w, e))[2]


def test_entropy_slope_is_beta():
    h = heisenberg_chain(HeisenbergParams(3, -1, -1, -1))
    w = np.linalg.eigvalsh(h.entries)
    e0, e_inf = energy_range(w)
    for frac in (0.2, 0.4, 0.6, 0.8):
        e = e0 + frac * (e_inf - e0)
        de = 1e-5 * (e_inf - e0)
        slope = (_entropy_at_energy(w, e + de)
                 - _entropy_at_energy(w, e - de)) / (2 * de)
        beta = beta_from_energy(w, e)
        assert abs(slope - beta) < 1e-4 * max(1.0, beta)


def test_gibbs_entropy_concave_in_energy(rng):
    w = np.sort(rng.standard_normal(12) * 3)
    e0, e_inf = energy_range(w)
    for _ in range(25):
        a, b = np.sort(e0 + rng.random(2) * (e_inf - e0))
        mid = 0.5 * (a + b)
        s_mid = _entropy_at_energy(w, mid)
        s_avg = 0.5 * (_entropy_at_energy(w, a) + _entropy_at_energy(w, b))
        assert s_mid >= s_avg - 1e-9


def test_linear_entropy_maximally_mixed():
    w = np.array([0.0, 1.0, 2.0, 3.0])
    val = linear_entropy_max(w, w.mean())
    assert abs(val - (1 - 1 / 4)) < 1e-12


def test_linear_entropy_two_level_closed_form():
    assert abs(linear_entropy_max(np.array([0.0, 1.0]), 0.25) - 0.375) < 1e-12


def test_linear_entropy_dominates_gibbs_impurity(rng):
    w = np.sort(rng.standard_normal(8) * 2)
    e0, e_inf = energy_range(w)
    for frac in (0.1, 0.5, 0.9):
        e = e0 + frac * (e_inf - e0)
        beta = beta_from_energy(w, e)
        p = np.exp(-beta * (w - w.min()))
        p /= p.sum()
        gibbs_impurity = 1.0 - float(p @ p)
        assert linear_entropy_max(w, e) >= gibbs_impurity - 1e-10


def test_linear_entropy_weights_moments(rng):
    w = np.sort(rng.standard_normal(10))
    e = float(w.mean() - 0.3 * (w.mean() - w.min()))
    p = linear_entropy_max_weights(w, e)
    assert p.min() >= 0
    assert abs(p.sum() - 1) < 1e-10
    assert abs(p @ w - e) < 1e-8


def test_linear_entropy_rejects_out_of_range():
    with pytest.raises(ValueError):
        linear_entropy_max(np.array([0.0, 1.0]), 2.0)
