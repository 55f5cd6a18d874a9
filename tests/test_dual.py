import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import brentq

import proxygap.dual as dual_mod
from conftest import chiral_current, csr_of, random_hermitian
from proxygap.dual import (GAP_TOLERANCE, GAP_TOLERANCE_LINEAR, GridOptions,
                           SolverOptions, bell_gap_bound, diagonal_dual,
                           gap_energy_scan, gap_lower_bound,
                           lin_dual_minimize, minimize_dual, ppt_energy_min,
                           prepare_dual)
from proxygap.linalg import (Bipartition, BlockLayout, CooMatrix,
                             HermitianOperator, partial_transpose_matrix)
from proxygap.models import (HeisenbergParams, XYParams, bell_staircase,
                             energy_extremes, heisenberg_chain,
                             heisenberg_sparse, xy_chain)
from proxygap.oracle import max_entropy_separable_lower
from proxygap.thermo import (beta_from_energy, energy_range, gibbs_at,
                             linear_entropy_max, linear_entropy_max_weights)
from proxygap.witness import (ALL, ConstraintSet, all_bipartitions,
                              dicke_witness, even_odd_bipartition,
                              Witness, projector_witness)


def _random_constraints(rng, n):
    wits = []
    if rng.random() < 0.7:
        m = int(rng.integers(1, n))
        wits.append(dicke_witness(n, m))
    cuts = []
    if rng.random() < 0.7:
        cuts.append(even_odd_bipartition(n))
    return ConstraintSet(tuple(wits), tuple(cuts))


def _packed(x) -> np.ndarray:
    """The real entries that hold packed blocks in a dual point: x itself
    where it is real, its real and imaginary parts where it is complex."""
    return np.ascontiguousarray(x).view(float).ravel()


def _random_matrix(rng, d, dtype):
    m = rng.standard_normal((d, d))
    return m + 1j * rng.standard_normal((d, d)) if dtype.kind == "c" else m


def _random_point(rng, problem):
    """A packed point: nu_i >= 0 and PSD Y_A in the blocks of its layout
    (the blocks of a PSD matrix are PSD)."""
    d = problem.spectrum.size
    ys = []
    for xl in problem.x_layouts:
        m = _random_matrix(rng, d, xl.dtype)
        m = (m @ m.conj().T / d).ravel()[xl.positions()]
        ys.append(_packed(xl.psd_project(m)))
    return np.concatenate([np.abs(rng.standard_normal(problem.n_wit))] + ys)


def _xxz_witness_case(rng):
    # witness-only XXZ rings take the symmetry split: momentum blocks for
    # prime n, magnetization blocks for n = 4
    n = int(rng.integers(3, 6))
    h = heisenberg_chain(HeisenbergParams(n, n, n, 1, -1))
    return h, ConstraintSet((dicke_witness(n, n // 2),))


def test_gradients_match_finite_differences(rng):
    """Gradients of both duals vs central differences at 60 random points
    (nu, Y), with e inside the spectrum of m = H - sum nu_i W_i - sum
    Y_A^(T_A): on dense complex problems, on symmetry blocks, and on the
    real sector blocks of the AFM 4-ring with its even-odd cut."""
    checked = 0
    while checked < 60:
        linear = checked % 2 == 1
        case = checked % 6 // 2
        if case == 0:
            n = int(rng.integers(2, 4))
            h = random_hermitian(rng, (2,) * n)
            cs = _random_constraints(rng, n)
        elif case == 1:
            h, cs = _xxz_witness_case(rng)
        else:
            h = heisenberg_chain(HeisenbergParams(4, -1, -1, -1))
            cs = ConstraintSet(map_slots=(even_odd_bipartition(4),))
        problem = prepare_dual(h, cs)
        if case == 1:
            assert problem.free.size or len(problem.block_sizes) > 1
        if case == 2:
            assert problem.path == "sector"
            assert [xl.dtype for xl in problem.x_layouts] == [np.float64]
        x = _random_point(rng, problem)
        w = np.linalg.eigvalsh(_dense_m(h, cs, x))
        e = float(w.min() + rng.uniform(0.1, 0.8) * (w.mean() - w.min()))
        obj = dual_mod._BlockObjective(problem, e, linear)
        val, grad = obj.value_grad(x)
        eps = 1e-6
        scale = max(1.0, abs(val))

        def slope(direction):
            return (obj.value_grad(x + eps * direction)[0] -
                    obj.value_grad(x - eps * direction)[0]) / (2 * eps)

        for i in range(problem.n_wit):
            direction = np.zeros(x.size)
            direction[i] = 1.0
            assert abs(slope(direction) - grad[i]) < 2e-6 * scale
        off = problem.n_wit
        d = problem.spectrum.size
        for xl in problem.x_layouts:
            # a random Hermitian direction for the matrix variable
            dm = _random_matrix(rng, d, xl.dtype)
            dm = ((dm + dm.conj().T) / 2).ravel()[xl.positions()]
            dm /= np.linalg.norm(dm)
            direction = np.zeros(x.size)
            direction[off:off + xl.width] = _packed(dm)
            off += xl.width
            assert abs(slope(direction) - grad @ direction) < 2e-6 * scale
        checked += 1


def _grand_canonical_cases():
    # real cuts, a cut with a witness, a complex ring, and two witnesses on
    # momentum blocks that stand for conjugate pairs
    afm4 = heisenberg_chain(HeisenbergParams(4, -1, -1, -1))
    eo4 = (even_odd_bipartition(4),)
    yield "cuts", afm4, ConstraintSet(map_slots=eo4)
    yield "cut+witness", afm4, ConstraintSet((dicke_witness(4, 2),), eo4)
    yield "two witnesses", _xxz(5), ConstraintSet((dicke_witness(5, 2),
                                                    dicke_witness(5, 3)))
    yield "complex", _phase_rotated(afm4), ConstraintSet(map_slots=eo4)


def test_grand_canonical_gradients_match_finite_differences(rng):
    """The envelope gradients beta (nu, rho^(T_A)) and -2b (nu, rho^(T_A))
    of the form SPG minimizes vs central differences, at random (nu, Y)
    with e inside the spectrum of m = H - sum nu_i W_i - sum Y_A^(T_A)."""
    for name, h, cs in _grand_canonical_cases():
        problem = prepare_dual(h, cs)
        if name == "two witnesses":
            assert problem.path == "momentum" and 2 in problem.mult
        for linear in (False, True):
            for _ in range(4):
                x = 0.3 * _random_point(rng, problem)
                w = np.linalg.eigvalsh(_dense_m(h, cs, x))
                e = float(w.min() + rng.uniform(0.1, 0.8)
                          * (w.mean() - w.min()))
                obj = dual_mod._BlockObjective(problem, e, linear)
                val, grad = obj.value_grad(x)
                assert not obj.proves_infeasible()
                eps = 1e-6
                for _ in range(4):
                    direction = rng.standard_normal(x.size)
                    direction[:problem.n_wit] = np.abs(
                        direction[:problem.n_wit])
                    direction /= np.linalg.norm(direction)
                    slope = (obj.value_grad(x + eps * direction)[0]
                             - obj.value_grad(x - eps * direction)[0]) / (
                        2 * eps)
                    assert abs(slope - grad @ direction) < 2e-6 * max(
                        1.0, abs(val)), (name, linear)


def test_empty_constraints_recover_gibbs(rng):
    """Dual with no constraints equals S_Gibbs(E) on 20 random cases."""
    for _ in range(20):
        n = int(rng.integers(2, 4))
        h = random_hermitian(rng, (2,) * n)
        w = np.linalg.eigvalsh(h.entries)
        e0, e_inf = energy_range(w)
        e = e0 + (0.05 + 0.9 * rng.random()) * (e_inf - e0)
        s_gibbs = gibbs_at(w, beta_from_energy(w, e))[2]
        val, point, info = minimize_dual(h, ConstraintSet(), e)
        assert abs(val - s_gibbs) < 1e-6


def _full_dual(obj, point):
    """The full dual at a packed point (lam,) mu < 0, nu_i, X_A, rebuilt
    from the evaluator's spectrum: the exponent lam I + mu H + sum nu_i W_i
    + sum X_A^(T_A) is lam + mu m((nu, X) / (-mu)), so the dual is
    F(lam + mu spec m) - lam - mu e, F = ln tr exp or 1 + 1/4 tr (.)_+^2."""
    lam, mu, x = ((point[0], point[1], point[2:]) if obj.linear
                  else (0.0, point[0], point[1:]))
    assert mu < 0.0
    w = obj._eigh(x / -mu)[0]
    if obj.counts is not None:
        w = np.repeat(w, obj.counts)
    z = lam + mu * w
    if obj.linear:
        f = 1.0 + 0.25 * float(np.maximum(z, 0.0) @ np.maximum(z, 0.0))
    else:
        f = float(np.log(np.exp(z - z.max()).sum()) + z.max())
    return f - lam - mu * obj.e


def test_dual_convexity_midpoints(rng):
    """l((p+q)/2) <= (l(p) + l(q))/2 on 100 random pairs, both full duals,
    rebuilt from the evaluator's spectrum at mu < 0."""
    h = heisenberg_chain(HeisenbergParams(3, -1, -1, -1))
    cs = ConstraintSet((dicke_witness(3, 1),), (even_odd_bipartition(3),))
    problem = prepare_dual(h, cs)
    e = -1.5

    def full_point(linear):  # (lam,) mu < 0, nu_i >= 0, PSD X_A
        scalars = [-abs(rng.standard_normal())]
        if linear:
            scalars.insert(0, rng.standard_normal())
        return np.concatenate([scalars, _random_point(rng, problem)])

    for i in range(100):
        obj = dual_mod._BlockObjective(problem, e, linear=i % 2 == 1)
        p, q = full_point(obj.linear), full_point(obj.linear)
        f_p = _full_dual(obj, p)
        f_q = _full_dual(obj, q)
        f_m = _full_dual(obj, 0.5 * (p + q))
        assert f_m <= 0.5 * (f_p + f_q) + 1e-9


def test_weak_duality_sandwich_small_chains(rng):
    """Separable-oracle lower bound never exceeds the dual upper bound."""
    for n in (2, 3):
        h = heisenberg_chain(HeisenbergParams(n, -1, -1, -1,
                                              periodic=(n > 2)))
        cs = ConstraintSet(map_slots=tuple(all_bipartitions(n)))
        w = np.linalg.eigvalsh(h.entries)
        for frac in (0.3, 0.6, 0.9):
            e0, e_inf = energy_range(w)
            e = e0 + frac * (e_inf - e0)
            try:
                lower = max_entropy_separable_lower(h, e, ensemble_size=48,
                                                    seed=7)
            except ValueError:
                continue  # below the separable energy range
            upper, _, _ = minimize_dual(h, cs, e)
            assert upper - lower >= -1e-6


def test_dual_is_upper_bound_in_detection_window():
    h = heisenberg_chain(HeisenbergParams(3, -1, -1, -1))
    cs = ConstraintSet(map_slots=(even_odd_bipartition(3),))
    w = prepare_dual(h, cs).spectrum
    s_gibbs = gibbs_at(w, beta_from_energy(w, -2.4))[2]
    gap = s_gibbs - minimize_dual(h, cs, -2.4)[0]
    assert gap > 0.1  # deep inside the detection window


def test_block_path_matches_dense_path(monkeypatch):
    # the ring takes the sector path with partial translation periods, the
    # open chain with no translation invariance
    for params, e in ((HeisenbergParams(4, 2, 2, 1, -0.5), -6.0),
                      (HeisenbergParams(5, 5, 5, 1, -1, periodic=False),
                       -24.0)):
        h = heisenberg_chain(params)
        cs = ConstraintSet((dicke_witness(params.n, 2),))
        assert len(prepare_dual(h, cs).block_sizes) > 1
        val_block, _, info_b = minimize_dual(h, cs, e)
        # no split: the dense H is the one block
        with monkeypatch.context() as patch:
            patch.setattr(dual_mod, "_blocks_for",
                          lambda h, cs: dual_mod._dense_blocks(h, cs, None))
            assert len(prepare_dual(h, cs).block_sizes) == 1
            val_dense, _, info_d = minimize_dual(h, cs, e)
        assert abs(val_block - val_dense) < 1e-5


def test_block_path_reports_projected_gradient():
    # at a high energy the Gibbs state satisfies the witness, so nu* = 0
    # sits on its bound while d/dnu = tr(sigma W) > 0
    h = heisenberg_chain(HeisenbergParams(5, 5, 5, 1, -1))
    cs = ConstraintSet((dicke_witness(5, 2),))
    w = np.linalg.eigvalsh(h.entries)
    e = float(w.min() + 0.8 * (w.mean() - w.min()))
    opts = SolverOptions()
    val, vec, info = minimize_dual(h, cs, e, opts)
    assert vec.tolist() == [0.0]
    assert abs(val - gibbs_at(w, beta_from_energy(w, e))[2]) < 1e-9
    assert info.grad_norm <= 10 * opts.tol
    assert info.converged


def _one_block(monkeypatch):
    """Force the dense layout: H, each witness and each X_A one block."""
    monkeypatch.setattr(dual_mod, "_blocks_for",
                        lambda h, cs: dual_mod._dense_blocks(h, cs, None))


def _as_one_block(vec, blocked, dense, n_scalar):
    """A packed point of `blocked` as the same point of `dense`."""
    xs = dual_mod._unpack_xs(vec, n_scalar, blocked.x_layouts)
    return np.concatenate([vec[:n_scalar]] + [
        _packed(xl.dense(x)) for x, xl in zip(xs, blocked.x_layouts)])


def _sector_cases():
    # AFM rings with cuts, alone and with a Dicke witness
    eo = [even_odd_bipartition(5)]
    for n, cuts, wits in ((4, all_bipartitions(4), ()), (5, eo, ()),
                          (5, eo, (dicke_witness(5, 2),))):
        yield (heisenberg_chain(HeisenbergParams(n, -1, -1, -1)),
               ConstraintSet(wits, tuple(cuts)))


def test_sector_layout_matches_one_block_layout(rng, monkeypatch):
    """Values and gradients of both duals with cuts agree to 1e-12 at
    random feasible points (nu, Y), blocked and forced into one block."""
    for h, cs in _sector_cases():
        blocked = prepare_dual(h, cs)
        assert (blocked.path, blocked.fallback) == ("sector", "PPT cuts")
        with monkeypatch.context() as patch:
            _one_block(patch)
            dense = prepare_dual(h, cs)
        assert [xl.size for xl in dense.x_layouts] == \
            [h.dim ** 2] * len(cs.map_slots)
        np.testing.assert_allclose(
            blocked.spectrum, dense.spectrum, rtol=0,
            atol=1e-12 * np.abs(dense.spectrum).max())
        w = blocked.spectrum
        k = blocked.n_wit
        for linear in (False, True):
            for _ in range(5):
                e = float(w.mean() - rng.random() * np.ptp(w) / 4)
                x = _random_point(rng, blocked)
                vb, gb = dual_mod._BlockObjective(
                    blocked, e, linear).value_grad(x)
                vd, gd = dual_mod._BlockObjective(
                    dense, e, linear).value_grad(
                    _as_one_block(x, blocked, dense, k))
                assert abs(vb - vd) <= 1e-12 * max(1.0, abs(vb))
                np.testing.assert_allclose(
                    _as_one_block(gb, blocked, dense, k), gd,
                    rtol=0, atol=1e-12)


def test_ppt_energy_min_matches_one_block_layout(monkeypatch):
    h = heisenberg_chain(HeisenbergParams(4, -1, -1, -1))
    cuts = all_bipartitions(4)
    blocked = ppt_energy_min(h, cuts)
    _one_block(monkeypatch)
    dense = ppt_energy_min(h, cuts)
    assert blocked.converged and dense.converged
    assert blocked.iterations == dense.iterations
    for key in ("value", "primal_value", "residual"):
        assert abs(getattr(blocked, key) - getattr(dense, key)) <= 1e-12
    np.testing.assert_allclose(blocked.rho, dense.rho, rtol=0, atol=1e-12)


def test_ppt_energy_min_reports_its_iterations():
    h = heisenberg_chain(HeisenbergParams(5, -1, -1, -1))
    cut = even_odd_bipartition(5)
    res = ppt_energy_min(h, [cut], max_iter=120)
    assert not res.converged and res.iterations == 120
    res = ppt_energy_min(heisenberg_chain(HeisenbergParams(4, -1, -1, -1)),
                         all_bipartitions(4))
    assert res.converged and 0 < res.iterations <= 20000


@pytest.mark.parametrize("params, cuts", [
    (HeisenbergParams(4, -1, -1, -1), all_bipartitions(4)),
    (HeisenbergParams(3, 3, 3, 1), [even_odd_bipartition(3)]),
    (HeisenbergParams(3, -1, -1, -0.5), [even_odd_bipartition(3)]),
    (HeisenbergParams(3, -1, -1, 0.0), [even_odd_bipartition(3)]),
    (HeisenbergParams(3, -1, -1, 1.0), [even_odd_bipartition(3)]),
], ids=["afm4-all-cuts", "xxz3-even-odd", "xxz3-jz-0.5", "xy3", "xxz3-jz1"])
def test_ppt_energy_min_reports_a_bracket(params, cuts):
    # value is a certified lower bound and primal_value the energy of a PPT
    # state, so the optimum lies within [value, value + residual]: a tighter
    # solve cannot certify more than that.  value lies below lam_min by the
    # rounding margin of E_min,W, so a bracket that closes to rounding stays
    # the right way round (the last three returned residuals of -1.8e-15,
    # -2.2e-16 and -8.9e-16 with the bare lam_min)
    h = heisenberg_chain(params)
    res = ppt_energy_min(h, cuts)
    tight = ppt_energy_min(h, cuts, cert_tol=1e-9)
    assert res.converged and tight.converged
    assert tight.value <= res.value + res.residual
    assert res.value < res.primal_value
    assert res.residual == res.primal_value - res.value
    # rho is a state, PSD under every partial transpose, of that energy
    assert np.trace(res.rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(res.rho).min() >= -1e-12
    for cut in cuts:
        pt = partial_transpose_matrix(res.rho, (2,) * params.n,
                                      cut.subset_mask)
        assert np.linalg.eigvalsh(pt).min() >= -1e-12
    assert np.vdot(res.rho, h.entries).real == pytest.approx(
        res.primal_value, abs=1e-12)


@pytest.mark.parametrize("n, iterations", [(4, 40), (5, 250), (8, 200)])
def test_ppt_energy_min_is_accelerated(n, iterations):
    # plain ADMM takes 200 (n=4) and 2850 (n=5) sweeps on these rings
    # with the even-odd cut, and certifies -5.037649090029933 at n=5; with
    # the penalty max|H_ij| the accelerated solve took 116, 512 and 530
    h = heisenberg_chain(HeisenbergParams(n, -1, -1, -1))
    res = ppt_energy_min(h, [even_odd_bipartition(n)])
    assert res.converged and res.iterations <= iterations
    assert 0 < res.rejected < res.iterations
    if n == 5:
        assert abs(res.value - -5.037649090029933) <= 1e-5


@pytest.mark.parametrize("n, cuts", [
    (4, all_bipartitions(4)), (5, [even_odd_bipartition(5)]),
], ids=["afm4-all-cuts", "afm5-even-odd"])
def test_ppt_energy_min_is_shift_and_scale_invariant(n, cuts):
    # the sweeps run on the traceless part of H with a penalty in its norm,
    # so aH + cI takes the same iterates, and value moves to a value + c;
    # the rounding margin of value scales with a, down to a = 1e-6.  The
    # upper side bounds the rounding of its own sum, so the bracket stays
    # open where the shift dwarfs aH (it read 0.0 at a = 1e-6 without it)
    h = heisenberg_chain(HeisenbergParams(n, -1, -1, -1))
    tol = 1e-5
    res = ppt_energy_min(h, cuts, cert_tol=tol)
    for a in (1e-6, 1e-3, 1e3):
        for c in (-100.0, 100.0):
            moved = HermitianOperator(a * h.entries + c * np.eye(h.dim),
                                      h.local_dims)
            got = ppt_energy_min(moved, cuts, cert_tol=a * tol)
            assert got.converged
            assert got.iterations == res.iterations
            assert abs(got.value - (a * res.value + c)) <= a * tol
            assert got.residual > 0


def test_xy_ring_with_a_cut_is_one_block():
    n = 4
    cs = ConstraintSet(map_slots=(even_odd_bipartition(n),))
    h = xy_chain(XYParams(n, 0.5, 0.3))
    problem = prepare_dual(h, cs)
    assert (problem.path, problem.fallback) == (
        "dense", "does not conserve magnetization")
    assert problem.block_sizes == [(16, 1)]
    assert [xl.size for xl in problem.x_layouts] == [16 * 16]
    assert problem.h_packed.dtype == h.entries.dtype == np.float64


def test_ppt_solves_diagonalize_blocks_of_at_most_ten(monkeypatch):
    # on the n=5 ring the sectors and the even-odd twisted blocks are
    # 1, 5, 10, 10, 5, 1 wide: no 32 x 32 matrix is diagonalized
    widths = []
    for name in ("eigh", "eigvalsh"):
        orig = getattr(np.linalg, name)

        def recorded(a, *args, orig=orig, **kwargs):
            widths.append(np.shape(a)[-1])
            return orig(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    h = heisenberg_chain(HeisenbergParams(5, -1, -1, -1))
    cut = even_odd_bipartition(5)
    cs = ConstraintSet(map_slots=(cut,))
    problem = prepare_dual(h, cs)
    widths.clear()  # prepare_dual takes the spectrum of the dense H
    for e in (-4.5, -6.0):
        minimize_dual(h, cs, e, problem=problem)
        lin_dual_minimize(h, cs, e, problem=problem)
    ppt_energy_min(h, [cut], max_iter=200)
    assert widths and max(widths) == 10


def test_ppt_sweep_runs_one_eigh_per_block_width(monkeypatch):
    # on the AFM 4-ring the sectors and the twisted blocks of all 7 cuts
    # are 1, 4, 6, 4, 1 wide: a sweep diagonalizes z0 and every z_A in one
    # eigh per width above 1, and so does each bracket's P_PSD of all Y_A
    # (one eigh per layout and width made 16 a sweep)
    h = heisenberg_chain(HeisenbergParams(4, -1, -1, -1))
    cuts = all_bipartitions(4)
    problem = prepare_dual(h, ConstraintSet(map_slots=tuple(cuts)))
    widths = {b for lay in [problem.layout] + problem.x_layouts
              for b in lay.sizes if b > 1}
    assert widths == {4, 6}
    calls, brackets = [], []
    eigh, certified = np.linalg.eigh, dual_mod._certified_min

    def counted_eigh(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    def counted_bracket(w):  # each bracket certifies one lam_min
        brackets.append(w)
        return certified(w)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(dual_mod, "_certified_min", counted_bracket)
    res = ppt_energy_min(h, cuts)
    assert res.converged and brackets
    assert len(calls) <= len(widths) * (res.iterations + len(brackets))


def test_ppt_energy_min_takes_no_spectrum_of_h(monkeypatch):
    # the PPT minimum energy never reads the spectrum of H, so its prepared
    # problem takes no eigvalsh of the packed H; a scan's first read does
    seen, problems = [], []
    eigvalsh, prepare = BlockLayout.eigvalsh, dual_mod.prepare_dual

    def recorded(self, packed):
        seen.append(packed)
        return eigvalsh(self, packed)

    def kept(h, cs):
        problems.append(prepare(h, cs))
        return problems[-1]

    monkeypatch.setattr(BlockLayout, "eigvalsh", recorded)
    monkeypatch.setattr(dual_mod, "prepare_dual", kept)
    h = heisenberg_chain(HeisenbergParams(5, -1, -1, -1))
    assert ppt_energy_min(h, [even_odd_bipartition(5)]).converged
    (problem,) = problems
    assert seen and not any(p is problem.h_packed for p in seen)
    spectrum = problem.spectrum
    assert seen[-1] is problem.h_packed and problem.spectrum is spectrum
    np.testing.assert_allclose(spectrum, np.linalg.eigvalsh(h.entries),
                               rtol=0, atol=1e-12)


def test_ppt_energy_min_shares_a_scan_problem():
    # a problem prepared with the same cuts and no witness gives the same
    # solve; one with a witness, or other cuts, is refused
    h = heisenberg_chain(HeisenbergParams(4, -1, -1, -1))
    cut = even_odd_bipartition(4)
    cs = ConstraintSet(map_slots=(cut,))
    problem = prepare_dual(h, cs)
    gap_energy_scan(h, cs, GridOptions(n_points=3), problem=problem)
    shared = ppt_energy_min(h, [cut], problem=problem)
    own = ppt_energy_min(h, [cut])
    assert (shared.value, shared.primal_value, shared.iterations) == \
        (own.value, own.primal_value, own.iterations)
    with_witness = prepare_dual(h, ConstraintSet((dicke_witness(4, 2),),
                                                 (cut,)))
    for bad, cuts in ((with_witness, [cut]), (problem, all_bipartitions(4))):
        with pytest.raises(ValueError):
            ppt_energy_min(h, cuts, problem=bad)


def test_split_falls_back_only_where_magnetization_is_not_conserved(
        monkeypatch):
    # the XY ring with r != 0 does not conserve total sigma_z: dense path
    n = 4
    cs = ConstraintSet((dicke_witness(n, 2),))
    problem = prepare_dual(xy_chain(XYParams(n, 0.5, 0.3)), cs)
    assert problem.path == "dense" and len(problem.block_sizes) == 1
    assert problem.fallback == "does not conserve magnetization"
    # any other fault in the split is raised, not taken for "no split"
    def broken(*args, **kwargs):
        raise RuntimeError("split failed")

    monkeypatch.setattr(dual_mod, "sector_split_sparse", broken)
    with pytest.raises(RuntimeError, match="split failed"):
        prepare_dual(heisenberg_chain(HeisenbergParams(n, n, n, 1, -1)), cs)


def test_prepare_dual_records_its_path():
    def xxz(n):
        return heisenberg_chain(HeisenbergParams(n, n, n, 1, -1))

    dicke11 = prepare_dual(xxz(11), ConstraintSet((dicke_witness(11, 5),)))
    assert (dicke11.path, dicke11.fallback) == ("momentum", None)
    assert len(dicke11.block_sizes) + dicke11.free.size > 11
    # N=4 has states like 0101 with translation period 2
    ring4 = prepare_dual(xxz(4), ConstraintSet((dicke_witness(4, 2),)))
    assert (ring4.path, ring4.fallback) == (
        "sector", "translation orbit with partial period")
    assert sorted(b for b, _ in ring4.block_sizes) == [4, 4, 6]
    ppt = prepare_dual(xxz(4), ConstraintSet(
        (dicke_witness(4, 2),), (even_odd_bipartition(4),)))
    assert (ppt.path, ppt.fallback) == ("sector", "PPT cuts")
    assert [b for b, _ in ppt.block_sizes] == [1, 4, 6, 4, 1]
    open5 = prepare_dual(
        heisenberg_chain(HeisenbergParams(5, 5, 5, 1, -1, periodic=False)),
        ConstraintSet((dicke_witness(5, 2),)))
    assert (open5.path, open5.fallback) == (
        "sector", "not translation invariant")
    assert open5.block_sizes == [(5, 1), (10, 1), (10, 1)]
    assert open5.free.size == 7


def test_prepare_dual_takes_a_hermitian_operator():
    h = heisenberg_chain(HeisenbergParams(3, -1, -1, -1))
    with pytest.raises(TypeError, match="HermitianOperator"):
        prepare_dual(h.entries, ConstraintSet())
    with pytest.raises(TypeError, match="HermitianOperator"):
        prepare_dual(h.sparse, ConstraintSet())


@pytest.mark.parametrize("n", [5, 7])
def test_sparse_and_dense_operators_prepare_the_same_problem(n):
    h = heisenberg_chain(HeisenbergParams(n, n, n, 1, -1))
    cs = ConstraintSet((dicke_witness(n, n // 2),))
    a = prepare_dual(h, cs)
    b = prepare_dual(HermitianOperator(h.entries, h.local_dims), cs)
    assert a.path == b.path == "momentum"
    assert a.block_sizes == b.block_sizes
    np.testing.assert_array_equal(a.h_packed, b.h_packed)
    for x, y in zip(a.w_packed, b.w_packed, strict=True):
        assert (x is None) == (y is None)
        if x is not None:
            np.testing.assert_array_equal(x, y)
    np.testing.assert_array_equal(a.free, b.free)
    np.testing.assert_array_equal(a.spectrum, b.spectrum)


def test_scan_splits_once(monkeypatch):
    calls = []
    for name in ("sector_split_sparse", "momentum_sector_split"):
        split = getattr(dual_mod, name)

        def counted(*args, split=split, **kwargs):
            calls.append(split)
            return split(*args, **kwargs)

        monkeypatch.setattr(dual_mod, name, counted)
    h = heisenberg_chain(HeisenbergParams(5, 5, 5, 1, -1))
    cs = ConstraintSet((dicke_witness(5, 2),))
    counts = []
    for n_points, bisect_iters in ((3, 2), (6, 5)):
        calls.clear()
        gap_energy_scan(h, cs, GridOptions(n_points=n_points,
                                           bisect_iters=bisect_iters))
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def _dense_m(h, cs, x):
    """The dense m = H - sum nu_i W_i - sum Y_A^(T_A) of a packed point
    x = (nu_i, Y_A), after checking that it is feasible: nu >= 0 and every
    Y_A PSD."""
    n_wit = len(cs.witnesses)
    x_layouts = prepare_dual(h, cs).x_layouts
    ys = [xl.dense(y) for y, xl in zip(
        dual_mod._unpack_xs(x, n_wit, x_layouts), x_layouts)]
    assert x.size == n_wit + sum(xl.width for xl in x_layouts)
    assert np.all(x[:n_wit] >= 0.0)
    m = h.entries
    for nu, wit in zip(x[:n_wit], cs.witnesses):
        m = m - nu * wit.to_dense()
    for y, cut in zip(ys, cs.map_slots):
        assert np.linalg.eigvalsh(y).min() >= -1e-12 * np.abs(y).max()
        m = m - partial_transpose_matrix(y, h.local_dims, cut.subset_mask)
    return (m + m.conj().T) / 2


def _assert_farkas_certificate(h, cs, e, x):
    """The packed point x = (nu_i, Y_A) is feasible and its dense m has
    lam_min(m) > e, so no state meets the constraints at energy e."""
    assert np.linalg.eigvalsh(_dense_m(h, cs, x)).min() > e


def test_spg_stops_at_farkas_certificate():
    # E/N = -1.2 lies below E_min,PPT/N = -1.0075 on the 5-ring
    h = heisenberg_chain(HeisenbergParams(5, -1, -1, -1))
    cs = ConstraintSet(map_slots=(even_odd_bipartition(5),))
    e = -1.2 * 5
    opts = SolverOptions()
    val, vec, info = minimize_dual(h, cs, e, opts)
    assert info.infeasible and info.converged and val == -np.inf
    assert info.iterations < opts.max_iter // 10
    _assert_farkas_certificate(h, cs, e, vec)


def test_linear_dual_stops_at_farkas_certificate():
    # E/N = -1.2 lies below E_min,PPT/N = -1 on the 4-ring
    h = heisenberg_chain(HeisenbergParams(4, -1, -1, -1))
    cs = ConstraintSet(map_slots=(even_odd_bipartition(4),))
    e = -1.2 * 4
    opts = SolverOptions(tol=1e-9, max_iter=5000)
    val, vec, info = lin_dual_minimize(h, cs, e, opts)
    assert info.infeasible and info.converged and val == -np.inf
    assert info.iterations < opts.max_iter // 10
    _assert_farkas_certificate(h, cs, e, vec)


def test_linear_dual_certifies_the_witness_only_dicke_ring():
    # at E0 + 2 % of the spread lam_min(H - 0.241 W) = -59.985 > E =
    # -60.037, so no state meets the Dicke witness; the dual must find it
    h = heisenberg_chain(HeisenbergParams(7, 7, 7, 1, -1))
    cs = ConstraintSet((dicke_witness(7, 3),))
    problem = prepare_dual(h, cs)
    assert problem.path == "momentum" and problem.free.size > 0
    w = problem.spectrum
    e = float(w.min() + 0.02 * (w.mean() - w.min()))
    opts = SolverOptions()
    val, vec, info = lin_dual_minimize(h, cs, e, opts, problem=problem)
    assert info.infeasible and info.converged and val == -np.inf
    assert info.iterations < opts.max_iter // 10
    _assert_farkas_certificate(h, cs, e, vec)


def test_witness_path_stops_at_farkas_certificate():
    # just above E0 every state violates the Dicke witness; the momentum
    # split leaves witness-free blocks, which the certificate must count
    h = heisenberg_chain(HeisenbergParams(5, 5, 5, 1, -1))
    cs = ConstraintSet((dicke_witness(5, 2),))
    problem = prepare_dual(h, cs)
    assert problem.free.size > 0
    w = problem.spectrum
    e = float(w.min() + 1e-6 * (w.mean() - w.min()))
    opts = SolverOptions()
    val, vec, info = minimize_dual(h, cs, e, opts, problem=problem)
    assert info.infeasible and info.converged and val == -np.inf
    assert info.certificate == "farkas"
    assert info.iterations < opts.max_iter // 10
    _assert_farkas_certificate(h, cs, e, vec)


def _xxz(n):
    return heisenberg_chain(HeisenbergParams(n, n, n, 1, -1))


def test_dicke_block_prepares_real_momentum_blocks():
    # the dicke-block workload: real H and W that commute with the site
    # reflection, so every momentum block is real symmetric and the whole
    # witness path runs in float64
    n = 11
    problem = prepare_dual(_xxz(n), ConstraintSet((dicke_witness(n, 5),)))
    assert (problem.path, problem.fallback) == ("momentum", None)
    assert problem.layout.dtype == np.float64
    assert problem.h_packed.dtype == problem.w_packed[0].dtype == np.float64
    assert all(hs.dtype == ws.dtype == np.float64
               for hs, ws, _ in problem.envelope.stacks)


def test_conjugate_pairs_match_the_unpaired_problem(monkeypatch, rng):
    # real H and W: momentum blocks k and n - k are conjugate (equal in the
    # RK-fixed basis), so one of each pair is kept with multiplicity 2
    n = 7
    h, cs = _xxz(n), ConstraintSet((dicke_witness(n, 3),))
    paired = prepare_dual(h, cs)
    assert sorted(set(paired.mult)) == [1, 2]
    assert paired.layout.dtype == np.float64
    split = dual_mod.momentum_sector_split

    def unpaired_split(ops, n):  # an imaginary op in the split: no pairs
        blocks, mult = split(list(ops) + [chiral_current(n)], n)
        return [bl[:-1] for bl in blocks], mult

    monkeypatch.setattr(dual_mod, "momentum_sector_split", unpaired_split)
    unpaired = prepare_dual(h, cs)
    assert set(unpaired.mult) == {1}
    assert sum(b * m for b, m in paired.block_sizes) == \
        sum(b for b, _ in unpaired.block_sizes)
    assert len(paired.block_sizes) < len(unpaired.block_sizes)
    np.testing.assert_allclose(paired.spectrum, unpaired.spectrum,
                               rtol=0, atol=1e-12 * 50)
    np.testing.assert_allclose(np.sort(paired.free), np.sort(unpaired.free),
                               rtol=0, atol=1e-12 * 50)
    for s in (0.1, 0.7):
        np.testing.assert_allclose(
            np.sort(paired.envelope.spectrum(s)),
            np.sort(unpaired.envelope.spectrum(s)), rtol=0, atol=1e-12 * 50)
    w = paired.spectrum
    for linear in (False, True):
        for _ in range(10):
            e = float(w.mean() - rng.random() * np.ptp(w) / 4)
            x = _random_point(rng, paired)
            va, ga = dual_mod._BlockObjective(paired, e,
                                              linear).value_grad(x)
            vb, gb = dual_mod._BlockObjective(unpaired, e,
                                              linear).value_grad(x)
            assert abs(va - vb) <= 1e-12 * max(1.0, abs(va))
            np.testing.assert_allclose(ga, gb, rtol=1e-12, atol=1e-12)


def _packed_once_case(path):
    """Momentum blocks with conjugate pairs, sector blocks, or the 1 x 1
    blocks of `diagonal_dual`."""
    if path == "momentum":
        return prepare_dual(_xxz(7), ConstraintSet((dicke_witness(7, 3),)))
    if path == "sector":
        return prepare_dual(_xxz(4), ConstraintSet((dicke_witness(4, 2),)))
    w = np.linalg.eigvalsh(_xxz(4).entries)
    wit = 0.5 - (np.arange(w.size) < 1)
    i = np.arange(w.size)
    cs = ConstraintSet((Witness(CooMatrix(i, i, wit, (w.size, w.size))),))
    return dual_mod._prepared(None, cs, "diagonal", None,
                              list(w.reshape(-1, 1, 1)),
                              [list(wit.reshape(-1, 1, 1))], [1] * w.size,
                              None)


def _nested_arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _nested_arrays(item)


@pytest.mark.parametrize("path", ["momentum", "sector", "diagonal"])
def test_witness_blocks_are_packed_once(path):
    """Each witness-path block lives in the packed H and W alone: the
    envelope's stacks are views of them, the problem holds no block
    matrices, and the eigenvalue multiplicities come from its block
    order."""
    problem = _packed_once_case(path)
    assert problem.path == path
    assert not hasattr(problem, "blocks")
    for field, value in vars(problem).items():
        assert all(a.ndim <= 1 for a in _nested_arrays(value)), field
    env = problem.envelope
    assert env.stacks
    for hs, ws, _ in env.stacks:
        assert np.shares_memory(hs, problem.h_packed)
        assert np.shares_memory(ws, problem.w_packed[0])
    assert sum(hs.size + ws.size for hs, ws, _ in env.stacks) == \
        problem.h_packed.size + problem.w_packed[0].size
    # each eigenvalue counted as often as the blocks its block stands for
    mult = np.asarray(problem.mult)
    want = np.concatenate([np.ones(problem.free.size, int)] + [
        np.repeat(mult[ids], b) for b, ids in problem.layout.groups])
    counts = dual_mod._BlockObjective(problem, 0.0).counts
    np.testing.assert_array_equal(
        np.ones(want.size, int) if counts is None else counts, want)
    assert want.sum() == problem.spectrum.size
    assert (path == "momentum") == (counts is not None)


def _witness_only_cases(rng):
    for n in (3, 5, 7):
        yield _xxz(n), ConstraintSet((dicke_witness(n, n // 2),))
    for _ in range(3):
        h = random_hermitian(rng, (2, 2, 2))
        psi = energy_extremes(h)[1][:, 0]
        yield h, ConstraintSet((projector_witness(psi, ALL, n_sites=3),))


def test_witness_path_is_never_above_spg(rng):
    """SPG on the same problem never beats the witness path by more than
    1e-9, and agrees with it to 1e-6 wherever SPG converges."""
    opts = SolverOptions()
    agreed = 0
    for h, cs in _witness_only_cases(rng):
        problem = prepare_dual(h, cs)
        assert problem.envelope is not None
        w = problem.spectrum
        for frac in (0.01, 0.1, 0.3, 0.6):
            e = float(w.min() + frac * (w.mean() - w.min()))
            for linear in (False, True):
                solve = lin_dual_minimize if linear else minimize_dual
                val, _, info = solve(h, cs, e, opts, problem=problem)
                obj = dual_mod._BlockObjective(problem, e, linear)
                _, spg_val, spg = dual_mod._spg(obj, np.zeros(obj.size), opts)
                if val == -np.inf:
                    assert info.infeasible
                    continue
                assert spg_val >= val - 1e-9
                if spg.converged and not spg.infeasible:
                    assert abs(spg_val - val) <= 1e-6
                    agreed += 1
    assert agreed >= 20


def test_two_witnesses_route_to_spg():
    n = 5
    h = _xxz(n)
    wits = (dicke_witness(n, 2), dicke_witness(n, 3))
    both = ConstraintSet(wits)
    problem = prepare_dual(h, both)
    assert problem.envelope is None and problem.x_layouts == []
    w = problem.spectrum
    for frac in (0.2, 0.4):
        e = float(w.min() + frac * (w.mean() - w.min()))
        val, vec, info = minimize_dual(h, both, e, problem=problem)
        assert info.termination in ("converged", "max_iter", "line_search")
        assert vec.size == 2 and np.all(vec >= 0.0)
        for wit in wits:
            one = ConstraintSet((wit,))
            assert prepare_dual(h, one).envelope is not None
            assert val <= minimize_dual(h, one, e)[0] + 1e-6


def test_gibbs_feasible_rows_skip_the_search():
    # high up the Gibbs state meets the Dicke witness: the bound is
    # S_Gibbs (the maximal impurity), at nu = 0, with no spectrum pass
    h, cs = _xxz(5), ConstraintSet((dicke_witness(5, 2),))
    problem = prepare_dual(h, cs)
    problem.envelope.edge()  # E_min,W, computed once per problem
    passes = problem.envelope.passes
    w = problem.spectrum
    e = float(w.min() + 0.8 * (w.mean() - w.min()))
    val, vec, info = minimize_dual(h, cs, e, problem=problem)
    assert info.termination == "gibbs_feasible" and info.evaluations == 0
    assert info.certificate == "bound" and info.grad_norm == 0.0
    assert vec.tolist() == [0.0]
    assert val == gibbs_at(w, beta_from_energy(w, e))[2]
    val, vec, info = lin_dual_minimize(h, cs, e, problem=problem)
    assert info.termination == "gibbs_feasible" and info.evaluations == 0
    assert vec.tolist() == [0.0] and val == linear_entropy_max(w, e)
    assert problem.envelope.passes == passes


@pytest.mark.parametrize("n, m, edge", [(11, 5, -13.642681),
                                        (13, 6, -16.184062)])
def test_witness_edge_matches_lanczos(n, m, edge):
    # E_min,W = max_s lam_min(H - sW), from an independent Lanczos run
    problem = prepare_dual(_xxz(n), ConstraintSet((dicke_witness(n, m),)))
    e_min_w = problem.envelope.e_min_w()
    assert e_min_w / n == pytest.approx(edge, abs=1e-6)
    lo, s_w = problem.envelope.edge()
    assert e_min_w < lo and s_w > 0.0


def test_witness_edge_counts_the_witness_free_blocks():
    # lower the all-up state of the XXZ 5-ring, which dicke_witness(5, 2)
    # does not touch, to between E0 and max_s lam_min(H - sW) over the
    # witness blocks (-30.230): it meets the witness, so it sets E_min,W,
    # and energies above it are feasible
    n = 5
    hs = csr_of(heisenberg_sparse(HeisenbergParams(n, n, n, 1, -1)))
    e_up = -30.885
    h = HermitianOperator(
        hs + sp.csr_matrix(([e_up - hs[0, 0]], ([0], [0])), shape=hs.shape),
        (2,) * n)
    cs = ConstraintSet((dicke_witness(n, 2),))
    problem = prepare_dual(h, cs)
    assert problem.free.min() == e_up
    assert problem.envelope.e_min_w() == pytest.approx(e_up, abs=1e-6)
    for solve in (minimize_dual, lin_dual_minimize):
        val, _, info = solve(h, cs, -30.56, problem=problem)
        assert not info.infeasible and val > -np.inf
    val, vec, info = minimize_dual(h, cs, e_up - 0.1, problem=problem)
    assert info.infeasible and val == -np.inf
    _assert_farkas_certificate(h, cs, e_up - 0.1, vec)


def test_scan_rows_below_the_witness_edge_are_infeasible():
    h, cs = _xxz(11), ConstraintSet((dicke_witness(11, 5),))
    res = gap_energy_scan(h, cs, GridOptions(n_points=3, bisect_iters=2))
    assert res.e_min_w / 11 == pytest.approx(-13.642681, abs=1e-6)
    assert (res.path, res.fallback) == ("momentum", None)
    assert sorted(set(m for _, m in res.block_sizes)) == [1, 2]
    for r in res.rows:
        assert r.infeasible == (r.e < res.e_min_w)
        assert (r.s_dual == -np.inf) == r.infeasible
    assert res.rows[0].infeasible


def test_decided_bisection_steps_are_certificates(monkeypatch):
    # an SPG bisection step stops at the first feasible point whose value
    # passes the scan's test s_ref - value > gap_tol: the point must be
    # feasible, its value the dual's there, and a full solve must detect
    h = heisenberg_chain(HeisenbergParams(4, -1, -1, -1))
    cs = ConstraintSet(map_slots=(even_odd_bipartition(4),))
    grid = GridOptions(n_points=5, e_lo=-4.8, bisect_iters=10)
    steps = []
    solve = dual_mod.minimize_dual

    def recorded(h, cs, e, *args, **kwargs):
        out = solve(h, cs, e, *args, **kwargs)
        steps.append((e, out))
        return out

    monkeypatch.setattr(dual_mod, "minimize_dual", recorded)
    res = gap_energy_scan(h, cs, grid)
    decided = [(e, out) for e, out in steps
               if out[2].termination == "decided"]
    assert len(decided) == res.bisect_decided > 0
    problem = prepare_dual(h, cs)
    w = problem.spectrum
    for e, (value, point, info) in decided:
        assert not info.converged and not info.infeasible
        obj = dual_mod._BlockObjective(problem, e)
        np.testing.assert_allclose(obj.project(point), point, rtol=0,
                                   atol=1e-12 * max(1.0, np.abs(point).max()))
        assert obj.value_grad(point)[0] == pytest.approx(value, rel=1e-12)
        s_ref = gibbs_at(w, beta_from_energy(w, e))[2]
        assert s_ref - value > GAP_TOLERANCE
        assert s_ref - solve(h, cs, e, problem=problem)[0] > GAP_TOLERANCE


@pytest.mark.parametrize("b, entropy, n_points", [
    (-1, "von-neumann", 5), (-1, "linear", 5), (3, "linear", 12)])
def test_witness_edges_are_certified(monkeypatch, b, entropy, n_points):
    # a witness-path edge is a detected energy: a cached spectrum of H - sW
    # passes the scan's own test there.  Its verdict solve, at most 1e-10
    # of the spread past it, does not detect, nor does a full solve there.
    # The field b = 3 puts the window above the first row, so that scan
    # has a lower edge too.
    h = heisenberg_chain(HeisenbergParams(5, 5, 5, 1, b))
    cs = ConstraintSet((dicke_witness(5, 2),))
    linear = entropy == "linear"
    solve_name = "lin_dual_minimize" if linear else "minimize_dual"
    solve = getattr(dual_mod, solve_name)
    verdicts = []

    def recorded(h, cs, e, *args, decides=None, **kwargs):
        out = solve(h, cs, e, *args, decides=decides, **kwargs)
        if decides is not None:
            verdicts.append((e, out[2].termination))
        return out

    monkeypatch.setattr(dual_mod, solve_name, recorded)
    problem = prepare_dual(h, cs)
    grid = GridOptions(n_points=n_points, bisect_iters=40, entropy=entropy)
    res = gap_energy_scan(h, cs, grid, problem=problem)
    w, env = problem.spectrum, problem.envelope
    tol = grid.resolved_gap_tolerance()

    def s_ref(e):
        return linear_entropy_max(w, e) if linear else \
            gibbs_at(w, beta_from_energy(w, e))[2]

    edges = [(res.e_max_gap, 1.0)]
    if not res.e_min_open:
        edges.append((res.e_min_gap, -1.0))
    assert len(verdicts) == res.bisect_steps == len(edges)
    spread = w.mean() - w.min()
    for edge, sign in edges:
        assert any(s_ref(edge) - env.bound(s, edge, linear) > tol
                   for s in env.spectra)
        e_v = [e for e, term in verdicts
               if 0.0 < sign * (e - edge) <= 1e-10 * spread]
        assert len(e_v) == 1
        assert s_ref(e_v[0]) - solve(h, cs, e_v[0],
                                     problem=problem)[0] <= tol


def test_dicke_block_edge_takes_at_most_bisect_iters_spectra(monkeypatch):
    # the dicke-block workload's upper edge: the maximization over s and
    # its one verdict solve compute at most 12 spectra, where bisection
    # computed 32; with a budget of 4 the search computes 4, and no verdict
    # solve follows
    h = heisenberg_chain(HeisenbergParams(11, 11, 11, 1, -1))
    cs = ConstraintSet((dicke_witness(11, 5),))
    counts = []
    edge = dual_mod.witness_edge

    def counted(env, *args):
        passes = env.passes
        out = edge(env, *args)
        counts.append(env.passes - passes)
        return out

    monkeypatch.setattr(dual_mod, "witness_edge", counted)
    for budget, verdicts in ((12, 1), (4, 0)):
        counts.clear()
        res = gap_energy_scan(h, cs, GridOptions(n_points=7,
                                                 bisect_iters=budget))
        assert len(counts) == 1 and 0 < counts[0] <= budget
        assert res.bisect_steps == verdicts and res.bisect_decided == 0
        assert res.rows[0].e < res.e_max_gap < res.rows[1].e


def _assert_projected_grad_norm(problem, e, linear, x, info):
    # the witness path and SPG both report the norm at the point returned
    obj = dual_mod._BlockObjective(problem, e, linear)
    norm = obj.grad_norm(x, obj.value_grad(x)[1])
    assert info.grad_norm == pytest.approx(norm, rel=1e-9)


def test_solve_info_reports_the_projected_gradient_norm():
    # every solver reports ||P(x - g) - x|| at the point it returns, also
    # when SPG stops at its iteration cap
    xxz = heisenberg_chain(HeisenbergParams(5, 5, 5, 1, -1))
    cs = ConstraintSet((dicke_witness(5, 2),))
    problem = prepare_dual(xxz, cs)
    w = problem.spectrum
    # the witness path: a Gibbs-feasible row, then a searched one
    for frac, termination in ((0.3, "gibbs_feasible"), (0.15, "converged")):
        e = float(w.min() + frac * (w.mean() - w.min()))
        _, vec, info = minimize_dual(xxz, cs, e, problem=problem)
        assert not info.infeasible and info.termination == termination
        _assert_projected_grad_norm(problem, e, False, vec, info)
    ring = heisenberg_chain(HeisenbergParams(4, -1, -1, -1))
    cs = ConstraintSet(map_slots=(even_odd_bipartition(4),))
    problem = prepare_dual(ring, cs)
    for e in (-3.2, -1.6):  # inside (E_min,PPT, mean) = (-4, 0)
        for opts in (SolverOptions(), SolverOptions(max_iter=5)):
            _, vec, info = minimize_dual(ring, cs, e, opts, problem=problem)
            assert info.termination == ("converged" if info.grad_norm <=
                                        opts.tol else "max_iter")
            assert info.evaluations >= info.iterations
            _assert_projected_grad_norm(problem, e, False, vec, info)
            _, vec, info = lin_dual_minimize(ring, cs, e, opts,
                                             problem=problem)
            assert not info.infeasible
            _assert_projected_grad_norm(problem, e, True, vec, info)


def test_packed_points_of_the_wrong_length_are_rejected(rng):
    # a real problem packs each X_A entry once: a point packed for a
    # complex layout, or one entry short or long, is not a point of it
    h = heisenberg_chain(HeisenbergParams(4, -1, -1, -1))
    problem = prepare_dual(h, ConstraintSet(
        map_slots=(even_odd_bipartition(4),)))
    xl = problem.x_layouts[0]
    obj = dual_mod._BlockObjective(problem, -3.2)
    vec = _random_point(rng, problem)
    assert vec.size == obj.size == xl.width == xl.size
    g = obj.value_grad(vec)[1]
    as_complex = _packed(vec.astype(complex))
    for bad in (vec[:-1], np.r_[vec, 0.0], as_complex):
        for call in (obj.value_grad, obj.project,
                     lambda v: obj.grad_norm(v, np.resize(g, v.size)),
                     lambda v: obj.grad_norm(vec, v)):
            with pytest.raises(ValueError, match="packed point"):
                call(bad)


def _phase_rotated(h):
    """U H U^+ for U = prod_j exp(i phi_j sigma^z_j), random phi_j: complex,
    with the spectrum, the sectors and the PPT optimum of H."""
    n = h.n_sites
    phi = np.random.default_rng(n).uniform(0.0, 2 * np.pi, n)
    idx = np.arange(2 ** n)
    theta = sum(phi[j] * (1 - 2 * ((idx >> (n - 1 - j)) & 1))
                for j in range(n))
    u = np.exp(1j * theta)
    return HermitianOperator(u[:, None] * h.entries * u.conj()[None, :],
                             h.local_dims)


def test_real_and_complex_problems_agree():
    h = heisenberg_chain(HeisenbergParams(4, -1, -1, -1))
    hu = _phase_rotated(h)
    assert np.abs(hu.entries.imag).max() > 0.1
    cut = even_odd_bipartition(4)
    cs = ConstraintSet(map_slots=(cut,))
    real, cplx = prepare_dual(h, cs), prepare_dual(hu, cs)
    assert real.path == cplx.path == "sector"
    assert real.h_packed.dtype == np.float64
    assert cplx.h_packed.dtype == np.complex128
    assert [xl.dtype for xl in real.x_layouts] == [np.float64]
    assert [xl.dtype for xl in cplx.x_layouts] == [np.complex128]
    np.testing.assert_allclose(real.spectrum, cplx.spectrum, rtol=0,
                               atol=1e-12)
    for e in (-3.6, -3.2, -1.6):  # inside (E_min,PPT, mean) = (-4, 0)
        for solve in (minimize_dual, lin_dual_minimize):
            a, vec_a, info_a = solve(h, cs, e, problem=real)
            b, vec_b, info_b = solve(hu, cs, e, problem=cplx)
            assert info_a.converged and info_b.converged
            assert vec_b.size - vec_a.size == real.x_layouts[0].size
            assert abs(a - b) <= 1e-9
    tol = 1e-5
    ra = ppt_energy_min(h, [cut], cert_tol=tol)
    rb = ppt_energy_min(hu, [cut], cert_tol=tol)
    assert ra.converged and rb.converged
    assert ra.rho.dtype == np.float64 and rb.rho.dtype == np.complex128
    assert abs(ra.value - rb.value) <= tol


@pytest.mark.parametrize("rotated", [False, True], ids=["real", "complex"])
def test_projected_steps_bound_the_gradient_norm(rng, rotated):
    # ||P(x - t g) - x|| does not decrease in t and its ratio to t does not
    # increase (Calamai & More, Lemma 2.2), so at every t it brackets the
    # projected gradient norm at t = 1, as SPG's stopping test relies on
    h = heisenberg_chain(HeisenbergParams(4, -1, -1, -1))
    h = _phase_rotated(h) if rotated else h
    cs = ConstraintSet((dicke_witness(4, 2),), (even_odd_bipartition(4),))
    problem = prepare_dual(h, cs)
    ts = np.logspace(-3, 3, 25)
    obj = dual_mod._BlockObjective(problem, -2.0)
    for _ in range(20):
        x = _random_point(rng, problem)
        g = rng.standard_normal(x.size) * 10.0 ** rng.uniform(-4, 1)
        pg = obj.grad_norm(x, g)
        norms = np.array([np.linalg.norm(obj.step(x, g, t)) for t in ts])
        slack = 1e-12 * (1.0 + np.linalg.norm(x))
        assert np.all(np.diff(norms) >= -slack)
        assert np.all(np.diff(norms / ts) <= slack / ts[1:])
        assert np.all(norms * np.minimum(1.0, 1.0 / ts) <= pg + slack)
        assert np.all(pg <= norms * np.maximum(1.0, 1.0 / ts) + slack / ts)


def test_gated_stopping_test_stops_where_the_exact_one_does(monkeypatch):
    # SPG takes the exact projected gradient norm only where the lower
    # bound from its step is near tol; with an infinite margin it takes it
    # every iteration.  Both rules must make the same solves, and the gate
    # must skip most exact tests
    h = heisenberg_chain(HeisenbergParams(5, -1, -1, -1))
    cs = ConstraintSet(map_slots=(even_odd_bipartition(5),))
    problem = prepare_dual(h, cs)
    exact = []
    grad_norm = dual_mod._BlockObjective.grad_norm

    def counted(self, vec, g):
        exact.append(1)
        return grad_norm(self, vec, g)

    monkeypatch.setattr(dual_mod._BlockObjective, "grad_norm", counted)
    runs = {}
    for margin in (dual_mod._SPG_GATE_MARGIN, np.inf):
        monkeypatch.setattr(dual_mod, "_SPG_GATE_MARGIN", margin)
        exact.clear()
        runs[margin] = [solve(h, cs, e, problem=problem)
                        for e in (-4.5, -3.0) for solve in
                        (minimize_dual, lin_dual_minimize)], len(exact)
    (gated, n_gated), (ungated, n_ungated) = runs.values()
    for (va, xa, ia), (vb, xb, ib) in zip(gated, ungated):
        assert va == vb and ia == ib
        np.testing.assert_array_equal(xa, xb)
    assert sum(info.iterations for _, _, info in gated) > 40
    assert 2 * n_gated < n_ungated


def test_spg_counts_its_backtracks():
    # the ppt-ring grid row at E = -4.5: the AFM 5-ring, even-odd cut
    h = heisenberg_chain(HeisenbergParams(5, -1, -1, -1))
    cs = ConstraintSet(map_slots=(even_odd_bipartition(5),))
    _, _, info = minimize_dual(h, cs, -4.5)
    assert info.converged and info.backtracks > 0
    assert info.evaluations >= info.iterations + info.backtracks
    # the witness path makes no line search
    xxz, wit = _xxz(5), ConstraintSet((dicke_witness(5, 2),))
    w = prepare_dual(xxz, wit).spectrum
    e = float(w.min() + 0.15 * (w.mean() - w.min()))
    info = minimize_dual(xxz, wit, e)[2]
    assert info.iterations > 0 and info.backtracks == 0


def test_spg_warm_starts_from_the_vector_it_returns():
    # both duals on the SPG path: a solve started from the packed point of
    # a converged solve at the same energy stops at its first iteration
    ring = heisenberg_chain(HeisenbergParams(4, -1, -1, -1))
    cs = ConstraintSet(map_slots=(even_odd_bipartition(4),))
    problem = prepare_dual(ring, cs)
    e = -3.2  # inside (E_min,PPT, mean) = (-4, 0)
    for solve in (minimize_dual, lin_dual_minimize):
        val, vec, info = solve(ring, cs, e, problem=problem)
        assert info.converged and info.iterations > 1
        again, vec2, info2 = solve(ring, cs, e, init=vec, problem=problem)
        assert info2.converged and info2.iterations <= 1
        assert vec2.size == vec.size
        assert abs(again - val) <= 1e-12


def test_init_of_the_wrong_length_is_rejected():
    # an init that is not a point of the problem raises, rather than
    # restarting the solve from zero
    ring = heisenberg_chain(HeisenbergParams(4, -1, -1, -1))
    cs = ConstraintSet(map_slots=(even_odd_bipartition(4),))
    problem = prepare_dual(ring, cs)
    size = problem.x_layouts[0].width
    for solve in (minimize_dual, lin_dual_minimize):
        for init in (np.zeros(3), np.zeros(size + 1)):
            with pytest.raises(ValueError, match="packed point"):
                solve(ring, cs, -3.2, init=init, problem=problem)


@pytest.fixture(scope="module")
def ring4_ppt_emin():
    h = heisenberg_chain(HeisenbergParams(4, -1, -1, -1))
    cut = even_odd_bipartition(4)
    return h, ConstraintSet(map_slots=(cut,)), ppt_energy_min(h, [cut]).value


@pytest.mark.parametrize("above", [1e-3, 1e-2])
def test_no_certificate_above_ppt_emin(ring4_ppt_emin, above):
    h, cs, e_min = ring4_ppt_emin
    assert not minimize_dual(h, cs, e_min + above)[2].infeasible
    assert not lin_dual_minimize(h, cs, e_min + above)[2].infeasible


@pytest.mark.parametrize("case", ["n5-linear-below", "n4-linear-below",
                                  "n4-above"])
def test_near_edge_rows_certify_or_converge(ring4_ppt_emin, case):
    # rows near E_min,PPT that SPG on the full dual left at max_iter: two
    # below it, where no PPT state exists, and one just above it
    h, cs, e_min = ring4_ppt_emin
    if case == "n4-above":
        val, vec, info = minimize_dual(h, cs, e_min + 1e-3)
        assert info.termination == "converged"
        assert info.certificate == "bound"
        assert val == pytest.approx(1.8313028, abs=1e-6)
        return
    e = e_min - 1e-2
    if case == "n5-linear-below":  # E_min,PPT/N = -1.0075 at n = 5
        h = heisenberg_chain(HeisenbergParams(5, -1, -1, -1))
        cs = ConstraintSet(map_slots=(even_odd_bipartition(5),))
        e = -1.0225 * 5
    val, vec, info = lin_dual_minimize(h, cs, e)
    assert val == -np.inf and info.certificate == "farkas"
    assert info.iterations < 100
    _assert_farkas_certificate(h, cs, e, vec)


def test_spg_returns_full_certificates(rng):
    """Every SPG solve returns a feasible point (nu, Y): the reported
    S_dual is its dual value, or at a -inf row it is a Farkas
    certificate, lam_min(m) > e; as init, a converged one starts a solve
    that stays there."""
    infeasible = 0
    for name, h, cs in _grand_canonical_cases():
        problem = prepare_dual(h, cs)
        w = problem.spectrum
        for frac in (0.05, 0.2, 0.4, 0.7):
            e = float(w.min() + frac * (w.mean() - w.min()))
            for linear in (False, True):
                solve = lin_dual_minimize if linear else minimize_dual
                val, vec, info = solve(h, cs, e, problem=problem)
                obj = dual_mod._BlockObjective(problem, e, linear)
                _dense_m(h, cs, vec)  # nu >= 0, PSD Y_A
                if val == -np.inf:
                    infeasible += 1
                    assert info.certificate == "farkas"
                    _assert_farkas_certificate(h, cs, e, vec)
                    continue
                assert info.certificate == "bound", (name, e, linear)
                assert obj.value_grad(vec)[0] == pytest.approx(
                    val, rel=1e-10)
                scale = max(1.0, np.abs(vec).max())
                if info.converged:  # as init, it starts a converged solve
                    again, vec2, _ = solve(h, cs, e, init=vec,
                                           problem=problem)
                    assert again == pytest.approx(val, rel=1e-12)
                    np.testing.assert_allclose(vec2, vec, rtol=0,
                                               atol=1e-10 * scale)
    assert infeasible >= 4


def test_lin_dual_empty_equals_water_filling(rng):
    for _ in range(5):
        h = random_hermitian(rng, (2, 2))
        w = np.linalg.eigvalsh(h.entries)
        e = float(w.mean() - 0.4 * (w.mean() - w.min()))
        direct = linear_entropy_max(w, e)
        val, _, info = lin_dual_minimize(h, ConstraintSet(), e)
        assert abs(val - direct) < 1e-6


def test_lin_dual_detects_at_low_energy():
    h = heisenberg_chain(HeisenbergParams(3, -1, -1, -1))
    cs = ConstraintSet(map_slots=(even_odd_bipartition(3),))
    e = -0.8 * 3
    free = linear_entropy_max(np.linalg.eigvalsh(h.entries), e)
    val, _, _ = lin_dual_minimize(h, cs, e)
    assert free - val > 1e-3


def _impurity_maximizer_pt_min(h, cut, e):
    # rho*(E) = sum_i p_i |i><i| is the unique maximizer of 1 - tr(rho^2)
    w, v = np.linalg.eigh(h.entries)
    rho = (v * linear_entropy_max_weights(w, e)) @ v.conj().T
    pt = partial_transpose_matrix(rho, h.local_dims, cut.subset_mask)
    return np.linalg.eigvalsh(pt).min()


@pytest.mark.parametrize("n, edge", [(3, -0.600), (4, -0.375),
                                     (5, -0.357010)])
def test_impurity_maximizer_turns_ppt_at_ring_edge(n, edge):
    # above this energy rho*(E) is PPT across the cut, so the linear gap is
    # exactly 0 and the detection window's upper edge cannot lie higher
    h = heisenberg_chain(HeisenbergParams(n, -1, -1, -1))
    cut = even_odd_bipartition(n)
    crossing = brentq(lambda e: _impurity_maximizer_pt_min(h, cut, e),
                      -0.7 * n, 0.0, xtol=1e-10)
    assert crossing / n == pytest.approx(edge, abs=1e-5)


def test_lin_dual_no_detection_where_maximizer_is_ppt():
    h = heisenberg_chain(HeisenbergParams(5, -1, -1, -1))
    cut = even_odd_bipartition(5)
    e = -0.33 * 5
    assert _impurity_maximizer_pt_min(h, cut, e) >= 0.0
    val, _, _ = lin_dual_minimize(h, ConstraintSet(map_slots=(cut,)), e)
    assert (linear_entropy_max(np.linalg.eigvalsh(h.entries), e) - val
            <= GAP_TOLERANCE_LINEAR)


def test_gap_energy_scan_empty_constraints_no_detection():
    h = heisenberg_chain(HeisenbergParams(3, -1, -1, -1))
    res = gap_energy_scan(h, ConstraintSet(), GridOptions(n_points=10))
    assert not any(r.detected for r in res.rows)
    assert res.e_max_gap is None
    assert res.detection_fraction == 0.0


def test_dicke_window_has_no_false_hole():
    # on this open chain a secant step of the witness search from s ~ 0.49
    # lands at s ~ 27.4, on the flat stretch where spec(H - sW) has its mean
    # below E and the bound is ln 32; its closing step there overshoots the
    # least bound seen, bound(0.517) = 0.769, so the search bisects back to
    # the optimum, bound(0.588) = 0.75584 (a grid over s reaches 0.75585 at
    # s = 0.59).  The row at E0 + 5 % of the spread is detected, and the
    # window has no hole
    h = heisenberg_chain(HeisenbergParams(5, 5, 5, 1, -1, periodic=False))
    cs = ConstraintSet((dicke_witness(5, 2),))
    res = gap_energy_scan(h, cs, GridOptions(n_points=21))
    assert res.rows[1].s_dual <= 0.7560
    hits = np.flatnonzero([r.detected for r in res.rows])
    assert hits.size and np.all(np.diff(hits) == 1)


def test_gap_energy_scan_window_brackets_detection():
    h = heisenberg_chain(HeisenbergParams(3, -1, -1, -1))
    cs = ConstraintSet(map_slots=(even_odd_bipartition(3),))
    res = gap_energy_scan(h, cs, GridOptions(n_points=15))
    assert res.e_min_gap is not None
    assert res.e_min_gap < res.e_max_gap
    inside = [r for r in res.rows if res.e_min_gap <= r.e <= res.e_max_gap]
    assert all(r.detected for r in inside)


def test_ppt_energy_min_two_qubit_bond():
    # PPT = separable for two qubits: product minimum is -1 on the bond
    h = heisenberg_chain(HeisenbergParams(2, -1, -1, -1, periodic=False))
    res = ppt_energy_min(h, [Bipartition({0}, 2)])
    assert res.converged
    assert abs(res.value - (-1.0)) < 5e-4
    assert res.residual <= 1e-4


def test_ppt_energy_min_certificate_is_lower_bound():
    h = heisenberg_chain(HeisenbergParams(3, -1, -1, -1))
    res = ppt_energy_min(h, all_bipartitions(3))
    # primal_value is the energy of a PPT state
    assert res.value <= res.primal_value
    # the certified value can never undercut the true ground energy
    assert res.value >= np.linalg.eigvalsh(h.entries).min() - 1e-9


def test_diagonal_dual_matches_full_dual(rng):
    """Ground-state-witness duals: scalar solver vs matrix solver, 10x."""
    for _ in range(10):
        n = int(rng.integers(2, 4))
        h = random_hermitian(rng, (2,) * n)
        w, v = np.linalg.eigh(h.entries)
        e0, vecs, _ = energy_extremes(h)
        psi = vecs[:, 0]
        wit = projector_witness(psi, ALL, n_sites=n)
        alpha = wit.alpha
        e = float(w.mean() - (0.3 + 0.4 * rng.random()) * (w.mean() - w[0]))
        s_diag, nu = diagonal_dual(w, alpha, vecs.shape[1], e)
        s_full, _, info = minimize_dual(h, ConstraintSet((wit,)), e)
        assert abs(s_diag - s_full) < 1e-6
        assert nu >= -1e-12


def test_diagonal_dual_at_d_1024():
    # one 1 x 1 block per eigenvalue: d = 1024 runs no d x d eigh.  The
    # references are the values of the one dense d x d block; the bound
    # agrees to rounding, the minimizer to far within the search's
    # tolerance on s
    rng = np.random.default_rng(1024)
    w = np.sort(rng.uniform(-1.0, 1.0, 1024))
    x = np.exp(-2.0 * (w - w.min()))
    e = float(x @ w / x.sum())
    alpha_crit = float(x[0] / x.sum())
    refs = {0.5: (6.470494601321975, -2.0055788318329735, 0.6978623805760235),
            2.0: (6.471119747831022, -2.0000000000000004, 0.0)}
    for fac, (s_ref, mu_ref, nu_ref) in refs.items():
        s_up, s = diagonal_dual(w, fac * alpha_crit, 1, e)
        # the full point (mu, nu) = (-beta, beta s), beta that of the Gibbs
        # state of spec(H - sW) at e
        wit = fac * alpha_crit - (np.arange(w.size) < 1)
        beta = beta_from_energy(w - s * wit, e)
        assert abs(s_up - s_ref) <= 1e-11
        assert -beta == pytest.approx(mu_ref, rel=1e-8)
        assert beta * s == pytest.approx(nu_ref, rel=1e-8, abs=1e-12)


def test_theorem3_boundary_transition():
    """nu* switches on exactly when alpha crosses e^(-beta E0)/Z."""
    w = np.linalg.eigvalsh(
        heisenberg_chain(HeisenbergParams(3, -1, -1, -1)).entries)
    beta = 1.0
    lnz = float(np.log(np.exp(-beta * (w - w.min())).sum()) - beta * w.min())
    alpha_crit = float(np.exp(-beta * w.min() - lnz))
    e = gibbs_at(w, beta)[1]
    for fac, expect_detect in [(1 - 1e-3, True), (1 + 1e-3, False)]:
        alpha = alpha_crit * fac
        # Theorem 3: the ground-state witness detects the Gibbs state at
        # beta exactly when ln(alpha) < -beta E0 - ln Z
        lnz_gibbs = gibbs_at(w, beta)[0]
        assert (np.log(alpha) < -beta * w.min() - lnz_gibbs) == expect_detect
        s_up, nu = diagonal_dual(w, alpha, 1, e)
        if expect_detect:
            assert nu > 0
            assert s_up < gibbs_at(w, beta)[2] - 1e-12
        else:
            assert nu < 1e-8


def test_gap_lower_bound_certifies():
    h = heisenberg_chain(HeisenbergParams(3, -1, -1, -1))
    cs = ConstraintSet(map_slots=(even_odd_bipartition(3),))
    e = -2.4
    w = np.linalg.eigvalsh(h.entries)
    beta = beta_from_energy(w, e)
    s_gibbs = gibbs_at(w, beta)[2]
    val, vec, _ = minimize_dual(h, cs, e)
    xl = prepare_dual(h, cs).x_layouts[0]
    assert vec.size == xl.width
    feas = _packed(xl.psd_project(dual_mod._unpack_xs(vec, 0, [xl])[0]))
    bound = gap_lower_bound(h, cs, beta, feas)
    assert bound <= (s_gibbs - val) + 1e-8
    # the trivial point certifies nothing
    assert abs(gap_lower_bound(h, cs, beta, np.zeros(xl.width))) < 1e-12


def test_bell_gap_bound_values_and_monotonicity():
    bounds = [bell_gap_bound(1.0, 2 ** k, 5.0) for k in range(5, 21)]
    assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(bounds, bounds[1:]))
    assert bounds[-1] >= 4.99
    with pytest.raises(ValueError):
        bell_gap_bound(0.0, 4, 1.0)


def test_bell_gap_bound_against_staircase_model():
    # the closed form lower-bounds the actual entropy gap of the model
    n, nu, beta = 4, 1.5, 1.0
    dec = bell_staircase(n)
    d = 2 ** (n // 2)
    h = HermitianOperator(dec.reconstruct(), (2,) * n)
    w = dec.eigenvalues
    e = gibbs_at(w, beta)[1]
    s_gibbs = gibbs_at(w, beta)[2]
    cut = Bipartition(set(range(n // 2)), n)
    cs = ConstraintSet(map_slots=(cut,))
    s_dual, _, _ = minimize_dual(h, cs, e)
    assert s_gibbs - s_dual >= bell_gap_bound(beta, d, nu) - 1e-6
