import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from proxygap.models import HeisenbergParams, heisenberg_chain
from proxygap.dual import _linear_multipliers
from proxygap.thermo import (_linear_entropy_weights, beta_from_energy,
                             energy_range, gibbs_at, gibbs_newton,
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


@pytest.mark.parametrize("shift", [0.0, -21.0, 1000.0])
@pytest.mark.parametrize("g0,g1", [(1, 1), (1, 5), (3, 2)])
def test_beta_from_energy_two_level_closed_form(shift, g0, g1):
    # levels shift (g0 times) and shift + 1 (g1 times): the mean energy
    # shift + t has beta = ln(g1 (1 - t) / (g0 t)), to rounding, however
    # far the spectrum sits from zero
    w = np.array([shift] * g0 + [shift + 1.0] * g1)
    for t in np.geomspace(1e-9, 0.3, 25):
        e = shift + t
        t = e - shift  # the gap that e represents, exactly
        expect = np.log(g1 * (1.0 - t) / (g0 * t))
        assert beta_from_energy(w, e) == pytest.approx(expect, rel=1e-13)


def test_beta_from_energy_rejects_out_of_range():
    w = np.array([0.0, 1.0])
    with pytest.raises(ValueError):
        beta_from_energy(w, 0.9)  # above the infinite-temperature mean
    with pytest.raises(ValueError):
        beta_from_energy(w, -0.5)
    for e in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            beta_from_energy(w, e)


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


def test_linear_entropy_weights_on_levels_split_by_rounding():
    # the real eigh of the AFM 3-ring splits each fourfold level by 2 ulps;
    # the lowest level's split must not shrink the support, which left the
    # weights off the energy constraint
    w = np.array([-3.000000000000001] * 2 + [-3.0] * 2 + [3.0] * 2
                 + [3.000000000000001] * 2)
    p = linear_entropy_max_weights(w, -2.1)
    assert p @ w == pytest.approx(-2.1, abs=1e-12)
    np.testing.assert_allclose(p, [0.2125] * 4 + [0.0375] * 4, atol=1e-12)


def test_impurity_multipliers_reproduce_the_weights(rng):
    # the 3-ring in a field B = 3 has a threefold ground level and a
    # threefold first excited one; at E0 + 1e-6 of the spread the weights
    # sit on both, and (a + b w)_+ must give them back with no fit
    h = heisenberg_chain(HeisenbergParams(3, -1, -1, -1, 3.0))
    w = np.linalg.eigvalsh(h.entries)
    np.testing.assert_allclose(w, [-6] * 3 + [0] * 3 + [6, 12], atol=1e-12)
    cases = [(w, w.min() + 1e-6 * (w.mean() - w.min()))]
    for _ in range(200):  # levels with ties, energies up to the maximum
        v = np.round(rng.standard_normal(int(rng.integers(1, 12))) * 3)
        frac = rng.choice([0.0, 1e-9, rng.random(), 1.0])
        cases.append((v, v.min() + frac * (v.max() - v.min())))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v, e in cases:
            p, a, b = _linear_entropy_weights(v, e)
            q = np.maximum(a + b * v, 0.0)
            np.testing.assert_allclose(q, p, rtol=0, atol=1e-12)
            assert p @ v == pytest.approx(e, abs=1e-9 * (1 + np.ptp(v)))
            if e <= v.mean():
                assert _linear_multipliers(v, e) == (2 * a, 2 * b)
                assert b <= 0.0


def test_gibbs_newton_solves_for_the_energy(rng):
    # every warm start, with or without counts, reaches scipy's root of
    # E(beta) = e on the shifted spectrum, its ln Z and normalized weights
    for _ in range(100):
        w = np.sort(rng.standard_normal(int(rng.integers(2, 20))) * 3)
        x, e0, mean = w - w.min(), w.min(), w.mean()
        e = e0 + rng.random() ** 3 * (mean - e0)

        def f(beta):
            return gibbs_at(x, beta)[1] - (e - e0)

        hi = 1.0
        while f(hi) > 0:
            hi *= 2.0
        beta = brentq(f, 0.0, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps)
        start = beta * 10.0 ** rng.uniform(-3, 3) if rng.random() < 0.9 \
            else 0.0
        got, lnz, q = gibbs_newton(x, e - e0, start)
        assert got == pytest.approx(beta, rel=1e-9, abs=1e-12)
        assert lnz - got * e0 == pytest.approx(gibbs_at(w, got)[0],
                                               rel=1e-12, abs=1e-12)
        assert q.sum() == pytest.approx(1.0, abs=1e-12)
        counts = rng.integers(1, 3, x.size)
        twice = gibbs_newton(np.repeat(x, counts), e - e0, start)
        once = gibbs_newton(x, e - e0, start, counts)
        assert once[0] == pytest.approx(twice[0], rel=1e-9)
    x = np.array([0.0, 1.0, 3.0])
    assert gibbs_newton(x, 4.0 / 3.0, 1.0)[0] == 0.0  # at the mean
    assert gibbs_newton(x, -1e-12, 1.0)[0] == 1e6
    with pytest.raises(RuntimeError):
        gibbs_newton(x, np.nan)


def test_linear_entropy_rejects_out_of_range():
    with pytest.raises(ValueError):
        linear_entropy_max(np.array([0.0, 1.0]), 2.0)
