"""Certified upper bounds on constrained maximum entropy via Lagrangian
duality, entropy gaps, detection windows, and the PPT minimum energy.

Both entropy duals are one spectral function F of one exponent,

    l(y, X_A) = F(sum_k y_k A_k + sum_A X_A^(T_A)) - b.y,

minimized over scalars y (nu_i >= 0 on the witnesses) and PSD X_A.  The
reduced von Neumann dual has F = ln tr exp:

    l(mu, nu_i, X_A) = ln tr exp(mu H + sum_i nu_i W_i + sum_A X_A^(T_A)) - mu E

and the linear-entropy dual has F = 1 + 1/4 tr (.)_+^2, a trace multiplier
lam on the identity, and b.y = lam + mu E.  Any feasible point is a valid
certificate (weak duality), so even a non-converged minimization yields a
usable upper bound.  A feasible point with lam_max(M) < b.y, M the
exponent, is a Farkas certificate: every state that met the constraints
would have b.y <= tr(rho M) <= lam_max(M), so none exists, the dual is
unbounded below and the solve returns -inf.

Two solvers remain.  With at most one witness W and no cuts, the witness
path writes (mu, nu) = (-beta, beta s): minimized over beta, the dual is
the Gibbs entropy (or maximal impurity) of spec(H - sW) at E, a generalized
grand canonical ensemble, and one bounded search over s >= 0 on eigenvalues
alone solves it.  Everything else, PPT cuts or two or more witnesses, runs
spectral projected gradient (SPG) on the full objective.  Both solvers
take and return the variables as one packed vector, (lam,) mu, nu_i and
the real and imaginary parts of the packed blocks of each X_A.

With cuts, when H and every witness conserve total S_z on qubits, the
exponent lives in the magnetization sectors and each X_A in the blocks of
the twisted charge S_z^B - S_z^A (Vollbrecht & Werner, PRA 64, 062307
(2001): twirling by the product unitaries exp(i phi S_z) keeps every cut
PPT, so the restriction loses nothing).  X_A^(T_A) is then an index
permutation, and every eigendecomposition runs on stacks of equal-size
blocks; otherwise each is one dense block.  `ppt_energy_min` runs in the
same layouts.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .linalg import BlockLayout, HermitianOperator, LinalgError, pt_permutation
from .models import (is_translation_invariant, momentum_sector_split,
                     popcounts, sector_split_sparse)
from .thermo import (_linear_entropy_weights, beta_from_energy, gibbs_at,
                     linear_entropy_max)
from .witness import ConstraintSet, Witness

GAP_TOLERANCE = 1e-4       # nats; "detected" threshold, von Neumann path
GAP_TOLERANCE_LINEAR = 1e-6  # converged linear duals lie ~1e-12 above optimum
# relative margin by which lam_max(M) must undercut b.y before a point counts
# as a Farkas certificate: covers the rounding of eigh and of b.y
FARKAS_MARGIN = 1e-9


@dataclass
class SolveInfo:
    converged: bool
    iterations: int
    grad_norm: float  # norm of the projected gradient; nan if not evaluated
    # the returned point is a Farkas certificate: no state meets the
    # constraints at this energy, and the bound is -inf
    infeasible: bool = False
    # spectrum passes on the witness path, objective calls in SPG
    evaluations: int = 0
    # "converged", "max_iter", "line_search", "certificate",
    # "gibbs_feasible" (the Gibbs state meets the witness: no search) or
    # "decided" (stopped at a feasible point whose value settles the
    # caller's `decides`; a valid bound, not the optimum)
    termination: str = "converged"


@dataclass
class ScanRow:
    e: float
    beta: float
    s_gibbs: float
    s_dual: float
    delta_s: float
    detected: bool
    converged: bool = True
    infeasible: bool = False  # s_dual = -inf: every state here is entangled


@dataclass
class GapScanResult:
    rows: list
    e0: float
    e_max: float
    e_min_gap: float | None
    e_max_gap: float | None
    detection_fraction: float
    # the first grid row is detected, so e_min_gap is that row's energy and
    # the lower edge of the window was not located
    e_min_open: bool
    # the witness path's certified lowest feasible energy: no state below
    # it meets the witness (None where none is computed)
    e_min_w: float | None
    path: str
    fallback: str | None
    block_sizes: list  # (dimension, multiplicity) per diagonalized block
    bisect_steps: int    # bisection steps on both window edges
    bisect_decided: int  # of them, settled "detected" before the optimum


def _operator_matrix(h) -> np.ndarray:
    if isinstance(h, HermitianOperator):
        return h.entries
    if sp.issparse(h):
        return h.toarray()
    return np.asarray(h)


def _local_dims(h, dim: int):
    if isinstance(h, HermitianOperator):
        return h.local_dims
    n = int(round(np.log2(dim)))
    if 2 ** n == dim:
        return (2,) * n
    return (dim,)


# ---------------------------------------------------------------------------
# the dual problem, prepared once per scan

def _dense_blocks(h, cs: ConstraintSet, fallback: str | None):
    """`_blocks_for`'s result where no split applies."""
    return ("dense", fallback, [_operator_matrix(h)],
            [[w.to_dense()] for w in cs.witnesses], [1], None)


def _blocks_for(h, cs: ConstraintSet):
    """Express H and all witnesses as magnetization blocks, refined by
    momentum when all are translation invariant and there is no cut
    (Gatermann & Parrilo, JPAA 2004; Sandvik, arXiv:1101.3281 sec. 4).

    Returns (path, fallback, h_blocks, w_blocks per witness, multiplicity
    per block, magnetization).  path is "momentum", "sector" or "dense",
    where the dense H and witnesses are the one block; fallback says why no
    finer path was taken, or is None.  magnetization, the excitation count
    of each basis state, is given where the blocks are its sectors and
    there are cuts, else None."""
    if not (isinstance(h, HermitianOperator) or sp.issparse(h)):
        return _dense_blocks(h, cs, "array input")
    hs = h.sparse if isinstance(h, HermitianOperator) else h.tocsr()
    dims = _local_dims(h, hs.shape[0])
    if any(d != 2 for d in dims):
        return _dense_blocks(h, cs, "not qubits")
    n = len(dims)
    w_sparse = [w.matrix.tocsr() for w in cs.witnesses]
    try:
        sb = sector_split_sparse(hs, n)
        w_sb = [sector_split_sparse(ws, n) for ws in w_sparse]
    except LinalgError:
        return _dense_blocks(h, cs, "does not conserve magnetization")
    ops = [hs] + w_sparse
    mag = None
    if cs.map_slots:
        # a product unitary u^(x n) keeps every cut PPT, so the twirl over
        # exp(i phi S_z) loses nothing; momentum blocks do not survive T_A
        fallback, mag = "PPT cuts", popcounts(n)
    elif all(is_translation_invariant(o, n) for o in ops):
        try:
            fine, mult = momentum_sector_split(ops, n)
            return ("momentum", None, [bl[0] for bl in fine],
                    [[bl[1 + i] for bl in fine] for i in range(len(w_sparse))],
                    mult, None)
        except LinalgError as exc:
            fallback = str(exc)
    else:
        fallback = "not translation invariant"
    return ("sector", fallback, [s.block for s in sb.sectors],
            [[s.block for s in wsb.sectors] for wsb in w_sb],
            [1] * len(sb.sectors), mag)


def _cut_layouts(mag, cuts, dims):
    """(layout, x_layouts, pt) with cuts: the layout of the exponent and
    the state, the magnetization sectors; that of each X_A, the blocks of
    the twisted charge m_B - m_A = m - 2 m_A, which the partial transpose
    on A exchanges with them; and per cut the index permutations
    (to_m, to_x) of that partial transpose between the two.  One block
    each where `mag` is None."""
    if mag is None:
        layout = BlockLayout([int(np.prod(dims))])
        x_layouts = [layout] * len(cuts)
    else:
        n = len(dims)
        idx = np.arange(2 ** n)
        layout = BlockLayout.of_charge(mag)
        x_layouts = [BlockLayout.of_charge(
            mag - 2 * sum((idx >> (n - 1 - i)) & 1 for i in cut.subset_mask))
            for cut in cuts]
    pt = [(pt_permutation(xl, layout, dims, cut.subset_mask),
           pt_permutation(layout, xl, dims, cut.subset_mask))
          for xl, cut in zip(x_layouts, cuts)]
    return layout, x_layouts, pt


@dataclass
class DualProblem:
    """H and a constraint set, prepared for any number of dual solves.

    `blocks` holds (H block, [witness block, or None where the witness
    vanishes]) for every symmetry block with witness support, or every
    block where there are cuts, and `mult` how many blocks of the split
    each stands for (2 for a conjugate momentum pair).  With PPT cuts the
    blocks are the magnetization sectors; when no split applies, the dense
    H is the one block.  `layout` packs the kept blocks (see
    `BlockLayout`), and `h_packed` and `w_packed` are H and each witness
    (None where it vanishes) in it.  Each X_A lives in the blocks of
    `x_layouts[A]`; `pt[A]` = (to_m, to_x) are the index permutations of
    its partial transpose into `layout` and back.  `free` holds the fixed
    spectra of the witness-free blocks and `spectrum` the sorted spectrum
    of H, each eigenvalue as often as it occurs.  `path` is the split taken
    ("momentum", "sector" or "dense") and `fallback` why no finer one was,
    or None.  `envelope` is the witness path, set when there is at most
    one witness and no cut."""
    blocks: list
    mult: list
    free: np.ndarray
    spectrum: np.ndarray
    layout: BlockLayout
    h_packed: np.ndarray
    w_packed: list
    x_layouts: list
    pt: list
    n_wit: int
    path: str
    fallback: str | None
    envelope: "_Envelope | None" = None

    @property
    def block_sizes(self) -> list:
        return [(hb.shape[0], m) for (hb, _), m in zip(self.blocks, self.mult)]


def _witness_diagonal(hb, wb):
    """The eigenvalues of H_b and <i|W_b|i> in its eigenbasis."""
    ev, v = np.linalg.eigh(hb)
    return ev, np.real(np.sum(v.conj() * (wb @ v), axis=0))


def prepare_dual(h, cs: ConstraintSet) -> DualProblem:
    """Split H and the witnesses into symmetry blocks once; pass the result
    as `problem` to every solve on the same H and constraint set."""
    n_wit = len(cs.witnesses)
    witness_path = n_wit <= 1 and not cs.map_slots
    path, fallback, h_blocks, w_blocks, mult, mag = _blocks_for(h, cs)
    blocks, kept, free, eigs, w_diags = [], [], [], [], []
    for hb, m, *wbs in zip(h_blocks, mult, *w_blocks):
        wbs = [wb if np.abs(wb).max() > 0 else None for wb in wbs]
        if not cs.map_slots and all(wb is None for wb in wbs):
            free.extend([np.linalg.eigvalsh(hb)] * m)
            continue
        if witness_path:
            ev, w_diag = _witness_diagonal(hb, wbs[0])
            w_diags.extend([w_diag] * m)
        else:
            ev = np.linalg.eigvalsh(hb)
        blocks.append((hb, wbs))
        kept.append(m)
        eigs.extend([ev] * m)
    free = np.concatenate([np.zeros(0)] + free)
    ev = np.concatenate([free] + eigs)
    if mag is not None:
        # with cuts the spectrum is that of the dense H: the grid's top
        # energy is its mean, pure rounding on a traceless H, and the
        # golden scans in tests/data hold it to the dense matrix's rounding
        ev = np.linalg.eigvalsh(_operator_matrix(h))
    if cs.map_slots:
        layout, x_layouts, pt = _cut_layouts(mag, cs.map_slots,
                                             _local_dims(h, ev.size))
    else:
        layout = BlockLayout([hb.shape[0] for hb, _ in blocks])
        x_layouts, pt = [], []
    w_packed = [None if all(wbs[i] is None for _, wbs in blocks) else
                layout.pack([np.zeros_like(hb) if wbs[i] is None else wbs[i]
                             for hb, wbs in blocks])
                for i in range(n_wit)]
    problem = DualProblem(blocks, kept, free, np.sort(ev), layout,
                          layout.pack([hb for hb, _ in blocks]), w_packed,
                          x_layouts, pt, n_wit, path, fallback)
    if witness_path:
        w_diag = np.concatenate([np.zeros(free.size)] + w_diags)
        problem.envelope = _Envelope(problem, ev, w_diag)
    return problem


# ---------------------------------------------------------------------------
# the dual objective

def _farkas_margin(by: float, w_max: float, w_min: float) -> float:
    """How far lam_max(M) must undercut b.y, for M with eigenvalues in
    [w_min, w_max], before the point counts as a Farkas certificate."""
    return FARKAS_MARGIN * (1.0 + abs(by) + max(w_max, -w_min))


def _log_tr_exp(w, c=None):
    """ln sum_i c_i exp(w_i) and its gradient, c_i exp(w_i) / Z; c are
    the multiplicities of the eigenvalues, all 1 when None."""
    shift = w.max()
    ew = np.exp(w - shift)
    if c is not None:
        ew *= c
    z = ew.sum()
    return np.log(z) + shift, ew / z


def _quarter_square_plus(w, c=None):
    """1 + 1/4 sum_i c_i (w_i)_+^2 and its gradient c_i (w_i)_+ / 2."""
    wp = np.maximum(w, 0.0)
    cwp = wp if c is None else c * wp
    return 0.25 * float(cwp @ wp) + 1.0, 0.5 * cwp


class _BlockObjective:
    """Value and gradient of the dual over the blocks of a problem.

    The packed variables are (lam,) mu, nu_i, X_A; lam, the multiplier of
    tr(rho) = 1, only for the linear entropy (ln tr exp normalizes by
    itself), and each X_A the packed blocks of its `x_layouts` entry.  The
    exponent M is built in the problem's `layout`, where each X_A^(T_A) is
    an index permutation of X_A, and diagonalized, M = v w v^+, one stack
    of equal-size blocks at a time; a witness-free block adds mu times its
    fixed spectrum.  With G = v F'(w) v^+, the gradient is tr(G A_k) - b_k
    in each scalar and G^(T_A) in each X_A: for the von Neumann dual, the
    moments and partial transposes of sigma = exp(M) / tr exp(M).  A block
    that stands for a conjugate pair counts its eigenvalues, and so its
    share of every trace, twice.

    Each evaluation also records lam_max(M) - b.y, read by
    `proves_infeasible`.  F(w) >= max(w) for both spectral functions, so a
    negative dual value implies a negative slack.
    """

    def __init__(self, problem: DualProblem, e: float, linear: bool = False):
        self.problem = problem
        self.e = e
        self.linear = linear
        self.spectral = _quarter_square_plus if linear else _log_tr_exp
        self.n_free = 2 if linear else 1  # leading free scalars
        self.slack = np.inf
        self.margin = 0.0
        p = problem
        mult = np.asarray(p.mult, dtype=float)
        self.counts = None if all(m == 1 for m in p.mult) else np.concatenate(
            [np.ones(p.free.size)]
            + [np.repeat(mult[ids], b) for b, ids in p.layout.groups])

    def project(self, vec):
        """The nearest feasible point: nu >= 0 and PSD X_A."""
        p = self.problem
        return _project_vec(vec, self.n_free, p.n_wit, p.x_layouts)

    def grad_norm(self, vec, g) -> float:
        """The projected gradient norm at a feasible point."""
        p = self.problem
        return _projected_grad_norm(vec, g, self.n_free, p.n_wit, p.x_layouts)

    def proves_infeasible(self) -> bool:
        """Whether the point of the last `value_grad` call, if feasible
        (nu >= 0, X_A PSD), has lam_max(M) < b.y beyond rounding: then no
        state meets the constraints at energy e."""
        return self.slack < -self.margin

    def value_grad(self, vec):
        p = self.problem
        k = self.n_free
        lam = vec[0] if self.linear else 0.0
        mu, nus = vec[k - 1], vec[k:k + p.n_wit]
        m = mu * p.h_packed
        if self.linear:
            m[p.layout.diagonal] += lam  # + lam I
        for nu, wp in zip(nus, p.w_packed):
            if nu != 0.0 and wp is not None:
                m += nu * wp
        for x, (to_m, _) in zip(_unpack_xs(vec, k + p.n_wit, p.x_layouts),
                                p.pt):
            m += x[to_m]
        w, vecs = p.layout.eigh(p.layout.hermitian(m))
        if p.free.size:
            w = np.concatenate([mu * p.free + lam, w])
        f, weights = self.spectral(w, self.counts)
        by = lam + mu * self.e
        w_max = float(w.max())
        self.slack = w_max - by
        self.margin = _farkas_margin(by, w_max, float(w.min()))
        off = p.free.size
        # tr(G A_k) = Re <G, A_k> for Hermitian G, the free blocks' share
        # first; tr G is the sum of the weights
        g = p.layout.compose(vecs, weights[off:])
        h_g = float(weights[:off] @ p.free) + \
            float(np.vdot(g, p.h_packed).real)
        w_g = [0.0 if wp is None else float(np.vdot(g, wp).real)
               for wp in p.w_packed]
        gxs = [g[to_x].view(float) for _, to_x in p.pt]
        grad = ([weights.sum() - 1.0] if self.linear else []) + \
            [h_g - self.e] + w_g
        return float(f - lam - mu * self.e), np.concatenate([grad] + gxs)


# ---------------------------------------------------------------------------
# projected minimization

def _unpack_xs(vec: np.ndarray, off: int, x_layouts) -> list:
    """The packed complex blocks of each X_A, from offset `off` of vec."""
    xs = []
    for layout in x_layouts:
        xs.append(vec[off:off + 2 * layout.size].copy().view(complex))
        off += 2 * layout.size
    return xs


def _project_vec(vec, n_free, n_wit, x_layouts):
    """Project packed variables (n_free free scalars, then nu_i, then X_A)
    onto nu >= 0 and PSD X_A."""
    out = vec.copy()
    out[n_free:n_free + n_wit] = np.maximum(out[n_free:n_free + n_wit], 0.0)
    off = n_free + n_wit
    for x, layout in zip(_unpack_xs(vec, off, x_layouts), x_layouts):
        out[off:off + 2 * x.size] = layout.psd_project(x).view(float)
        off += 2 * x.size
    return out


def _projected_grad_norm(x, g, n_free, n_wit, x_layouts) -> float:
    """||P(x - g) - x|| at a feasible x, zero exactly at a minimizer.  The
    scalars are stepped as -g and max(-g, -nu), so that g is not lost to
    rounding where |x| >> |g| far out on an unbounded ray."""
    step = _project_vec(x - g, n_free, n_wit, x_layouts) - x
    step[:n_free] = -g[:n_free]
    nus = slice(n_free, n_free + n_wit)
    step[nus] = np.maximum(-g[nus], -x[nus])
    return float(np.linalg.norm(step))


def _spg(obj: _BlockObjective, x0, opts: SolverOptions, memory=10,
         decides=None):
    """Spectral projected gradient (Barzilai-Borwein steps, nonmonotone
    Armijo line search; Birgin, Martinez & Raydan, SIAM J. Optim. 10, 1196
    (2000)) for a dual objective over its feasible set.

    Every trial point is a convex combination of feasible points; the
    solve stops at the first one that `obj.proves_infeasible()` after its
    `value_grad`, and returns it with the value -inf.  Given `decides`, it
    also stops at the start point or the first trial point whose value
    makes `decides(value)` true, and returns it as "decided"."""
    project, grad_norm = obj.project, obj.grad_norm
    tol, max_iter = opts.tol, opts.max_iter
    calls = 0

    def fun_grad(vec):
        nonlocal calls
        calls += 1
        return obj.value_grad(vec)

    def early(xv, fv, gv, it):
        # a Farkas certificate takes precedence over a decided value
        pg = grad_norm(xv, gv)
        if obj.proves_infeasible():
            return xv, -np.inf, SolveInfo(True, it, pg, True, calls,
                                          "certificate")
        return xv, fv, SolveInfo(False, it, pg, False, calls, "decided")

    x = project(x0)
    f, g = fun_grad(x)
    if decides is not None and decides(f):
        return early(x, f, g, 0)
    hist = [f]
    alpha = 1.0 / max(np.linalg.norm(g), 1e-8)
    best_x, best_f = x.copy(), f
    it = 0
    pg_norm = np.inf
    termination = "max_iter"
    for it in range(1, max_iter + 1):
        pg_norm = grad_norm(x, g)
        if pg_norm <= tol:
            termination = "converged"
            break
        d = project(x - alpha * g) - x
        dg = float(np.dot(d, g))
        if dg > -1e-18:
            alpha = max(alpha * 0.1, 1e-12)
            d = project(x - alpha * g) - x
            dg = float(np.dot(d, g))
            if dg > -1e-18:
                termination = "line_search"
                break
        lam = 1.0
        fmax = max(hist[-memory:])
        while True:
            xn = x + lam * d
            fn, gn = fun_grad(xn)
            if obj.proves_infeasible() or (decides is not None
                                           and decides(fn)):
                return early(xn, fn, gn, it)
            if fn <= fmax + 1e-4 * lam * dg or lam < 1e-12:
                break
            lam *= 0.5
        s = xn - x
        y = gn - g
        sy = float(np.dot(s, y))
        ss = float(np.dot(s, s))
        alpha = min(max(ss / sy, 1e-12), 1e8) if sy > 1e-18 else alpha * 2.0
        x, f, g = xn, fn, gn
        hist.append(f)
        if f < best_f:
            best_f, best_x = f, x.copy()
    else:  # the last step moved x after its norm was taken
        pg_norm = grad_norm(x, g)
    if f > best_f:
        x, f = best_x, best_f
        _, g = fun_grad(x)
        pg_norm = grad_norm(x, g)
    return x, f, SolveInfo(pg_norm <= tol * 10, it, float(pg_norm), False,
                           calls, termination)


@dataclass
class SolverOptions:
    tol: float = 1e-7
    max_iter: int = 2000


# ---------------------------------------------------------------------------
# the witness path: a one-parameter envelope of Gibbs spectra

_SPECTRA_KEPT = 64  # spectra of H - sW cached per problem
# the search over s stops at a step below _S_XTOL * s, or below the span of
# its central differences once that span is down to _S_STEP * max(s, s_W),
# the least on which rounding in the bound (~1e-15) stays far below the
# slope it resolves
_S_XTOL = 1e-6
_S_STEP = 1e-4


def _linear_multipliers(w: np.ndarray, e: float):
    """(lam, mu) with (lam + mu w_i)_+ / 2 the impurity maximizer's weights
    on the spectrum w at energy e, clipped to [min w, mean w]."""
    p = _linear_entropy_weights(w, float(np.clip(e, w.min(), w.mean())))
    sup = p > 0
    if sup.sum() >= 2:
        a = np.polyfit(w[sup], p[sup], 1)
        return 2.0 * a[1], 2.0 * a[0]
    return 2.0 / w.size, 0.0


class _Envelope:
    """The dual with at most one witness W and no cuts, as a one-parameter
    family of Gibbs spectra (the generalized grand canonical ensemble).

    For s >= 0 every state with tr(rho H) = E and tr(rho W) >= 0 has
    tr(rho (H - sW)) <= E.  The maximal entropy under that one constraint,
    the Gibbs entropy (or maximal impurity) of spec(H - sW) at E capped at
    its mean, is therefore an upper bound: for the von Neumann entropy it
    is the dual at (mu, nu) = (-beta, beta s) minimized over beta, for the
    linear entropy the dual at the matching (lam, mu, nu).  It is
    quasiconvex in s, so a bracketed 1-D search over eigenvalues alone
    reaches the dual optimum.  Where E < lam_min(H - sW) no state is left
    and (mu, nu) = (-1, s) is a Farkas certificate; the largest such E,
    E_min,W = max_s lam_min(H - sW), is a concave maximization solved once.
    Spectra are cached by s: a cached s bounds every energy.
    """

    def __init__(self, problem: DualProblem, energies, w_diag):
        self.problem = problem
        self.blocks = [(hb, wbs[0]) for hb, wbs in problem.blocks if wbs]
        self.energies = energies  # spec(H) in the layout of `spectrum(s)`
        self.w_diag = w_diag      # <i|W|i> in the eigenbasis of H
        self.spectra = {}
        self.passes = 0
        self.s_last = None        # the last interior optimum
        self.move = np.inf        # how far the last search moved from there
        self._edge = None         # (lam_min(H - s_W W), s_W)

    def spectrum(self, s: float) -> np.ndarray:
        """spec(H - sW), each eigenvalue as often as it occurs."""
        if s == 0.0:
            return self.energies
        w = self.spectra.get(s)
        if w is None:
            p = self.problem
            parts = [p.free]
            for (hb, wb), m in zip(self.blocks, p.mult):
                parts.extend([np.linalg.eigvalsh(hb - s * wb)] * m)
            w = np.concatenate(parts)
            if len(self.spectra) >= _SPECTRA_KEPT:
                del self.spectra[next(iter(self.spectra))]
            self.spectra[s] = w
            self.passes += 1
        return w

    def _lowest(self, s: float):
        """lam_min(H - sW) and its slope in s, -<v|W|v> for the lowest
        eigenvector v (a supergradient where v is degenerate)."""
        free = self.problem.free
        best = (float(free.min()) if free.size else np.inf, 0.0)
        self.passes += 1
        for hb, wb in self.blocks:
            w, v = sla.eigh(hb - s * wb, subset_by_index=[0, 0])
            if w[0] < best[0]:
                v = v[:, 0]
                best = (float(w[0]), -float(np.real(v.conj() @ wb @ v)))
        return best

    def edge(self):
        """(E_min,W, s_W): lam_min(H - sW) is concave in s.  Its slopes at
        0 and at s = 1, doubled until it falls, bracket the maximum; the
        tangents at the two ends meet above it, and their crossing is the
        next point, until it lies within rounding of the best value."""
        if self._edge is None:
            a, b = 0.0, 1.0
            (fa, ga), (fb, gb) = self._lowest(a), self._lowest(b)
            for _ in range(64):
                if ga <= 0.0 or gb < 0.0:
                    break
                a, fa, ga, b = b, fb, gb, 2.0 * b
                fb, gb = self._lowest(b)
            s_w = a
            while ga > 0.0 > gb:
                s = min(max((fb - fa + ga * a - gb * b) / (ga - gb), a), b)
                if fa + ga * (s - a) - max(fa, fb) <= 1e-13 * (1 + abs(fa)):
                    s_w = a if fa >= fb else b
                    break
                fs, gs = self._lowest(s)
                if gs > 0.0:
                    a, fa, ga = s, fs, gs
                else:
                    b, fb, gb = s, fs, gs
                s_w = s
            self._edge = (float(self.spectrum(s_w).min()), s_w)
        return self._edge

    def certifies(self, e: float, s: float) -> bool:
        """Whether (mu, nu) = (-1, s) proves that no state with
        tr(rho W) >= 0 has energy e: e < lam_min(H - sW), beyond rounding."""
        w = self.spectrum(s)
        lo = float(w.min())
        return e - lo < -_farkas_margin(e, -lo, -float(w.max()))

    def e_min_w(self) -> float:
        """The certified lowest feasible energy: below it every state
        violates the witness."""
        lo, s_w = self.edge()
        return lo - _farkas_margin(lo, -lo, -float(self.spectrum(s_w).max()))

    def bound(self, s: float, e: float, linear: bool) -> float:
        """The maximal entropy at tr(rho (H - sW)) <= e; -inf where (-1, s)
        is a Farkas certificate."""
        if self.certifies(e, s):
            return -np.inf
        w = self.spectrum(s)
        e_s = min(max(e, float(w.min())), float(w.mean()))
        if linear:
            return linear_entropy_max(w, e_s)
        beta = beta_from_energy(w, e_s)
        return gibbs_at(w, beta)[0] + beta * e  # the dual at (-beta, beta s)

    def point(self, s: float, e: float, linear: bool) -> np.ndarray:
        """The packed dual point (lam,) mu, nu of the bound at s."""
        w = self.spectrum(s)
        if linear:
            lam, mu = _linear_multipliers(w, e)
            return np.array([lam, mu, -mu * s])
        beta = beta_from_energy(w, min(max(e, float(w.min())),
                                       float(w.mean())))
        return np.array([-beta, beta * s])

    def _farkas(self, k: int, s: float, iterations: int, passes: int):
        """The solve's result at the certificate (mu, nu) = (-1, s)."""
        vec = np.zeros(k + 1)
        vec[k - 1:] = -1.0, s
        return -np.inf, vec, SolveInfo(True, iterations, np.nan, True,
                                       self.passes - passes, "certificate")

    def _search(self, e: float, linear: bool, opts: SolverOptions,
                decides=None):
        """Minimize bound(s) over s > 0, where it decreases at s = 0.

        From the last optimum, Newton's method on the central-difference
        slope of the bound, then the secant method on that slope; a step
        that leaves the bracket of s* which the slopes' signs give doubles
        s or bisects the bracket instead.  Returns (s, evaluations, whether
        the iteration cap stopped it); where a Farkas certificate turned
        up, s is that point.  Raises `_Decided` at the first bound that
        makes `decides` true."""
        seen = {}

        def f(s):
            if s not in seen:
                seen[s] = self.bound(s, e, linear)
                if decides is not None and decides(seen[s]):
                    raise _Decided(s, seen[s], len(seen))
            return seen[s]

        s_w = self.edge()[1]
        c = start = self.s_last or 0.5 * s_w or 1.0

        def span(c, want):  # stencil half-width: >= the floor, <= c / 20
            floor = _S_STEP * max(c, s_w)
            return min(max(want, floor), 0.05 * c), floor

        h, floor = span(c, 0.5 * self.move)
        lo, hi, prev = 0.0, np.inf, None
        for _ in range(opts.max_iter):
            fm, fp = f(c - h), f(c + h)
            if min(fm, fp) == -np.inf:
                return min(seen, key=seen.get), len(seen), False
            d = (fp - fm) / (2.0 * h)
            if d < 0.0:
                lo = c
            else:
                hi = c
            if prev is None:
                curv = (fp - 2.0 * f(c) + fm) / (h * h)
                step = -d / curv if curv > 0.0 else np.nan
            else:
                dd = d - prev[1]
                step = -d * (c - prev[0]) / dd if dd != 0.0 else np.nan
            if abs(step) <= (h if h <= floor else _S_XTOL * c):
                f(c + step)
                self.move = abs(c + step - start)
                return c + step, len(seen), False
            c_new = c + step
            if not lo < c_new < hi:
                c_new = 2.0 * c if hi == np.inf else 0.5 * (lo + hi)
            prev = c, d
            h, floor = span(c_new, 0.1 * abs(c_new - c))
            c = c_new
        return min(seen, key=seen.get), len(seen), True

    def _cached_verdict(self, e: float, linear: bool, decides):
        """(s, bound(s)) for a cached s whose bound makes `decides` true,
        else None; no spectrum is computed.  The bound is quasiconvex in s,
        so a walk downhill through the sorted cached s, from the last
        optimum, ends at their least bound (short of a flat stretch, where
        it stops), and `decides` is monotone in the value, so the walk
        checks a handful of them, not all."""
        ss = sorted(self.spectra)
        if not ss:
            return None
        values = {}

        def bound(i):
            if i not in values:
                values[i] = self.bound(ss[i], e, linear)
            return values[i]

        i = min(bisect_left(ss, self.s_last or 0.0), len(ss) - 1)
        while not decides(bound(i)):
            j = min((j for j in (i - 1, i + 1) if 0 <= j < len(ss)),
                    key=bound, default=i)
            if not bound(j) < bound(i):
                return None
            i = j
        return ss[i], bound(i)

    def solve(self, e: float, opts: SolverOptions, linear: bool,
              decides=None):
        """The witness-path solve: (value, packed point, SolveInfo).  Given
        `decides`, the first s, cached or searched, whose bound makes it
        true ends the solve, as "decided" (or at a Farkas certificate
        where that bound is -inf); where none does, the solve returns the
        optimum's bound with no gradient (grad_norm nan)."""
        p = self.problem
        obj = _BlockObjective(p, e, linear)
        k, passes = obj.n_free, self.passes
        if p.n_wit and self.certifies(e, self.edge()[1]):
            return self._farkas(k, self.edge()[1], 0, passes)
        # the entropy maximizer for H alone, in H's eigenbasis
        spec, eps = p.spectrum, self.energies
        if linear:
            lam, mu = _linear_multipliers(spec, e)
            weights = 0.5 * np.maximum(lam + mu * eps, 0.0)
            value = linear_entropy_max(spec, e)
            vec = np.array([lam, mu] + [0.0] * p.n_wit)
            grad = [weights.sum() - 1.0, weights @ eps - e]
        else:
            beta = beta_from_energy(spec, e)
            weights = np.exp(-beta * (eps - eps.min()))
            weights /= weights.sum()
            value = gibbs_at(spec, beta)[2]
            vec = np.array([-beta] + [0.0] * p.n_wit)
            grad = [weights @ eps - e]
        w_mean = float(weights @ self.w_diag)
        if w_mean >= 0.0:  # it meets the witness: no search
            g = np.array(grad + [w_mean] * p.n_wit)
            return value, vec, SolveInfo(True, 0, obj.grad_norm(vec, g),
                                         False, self.passes - passes,
                                         "gibbs_feasible")
        found, iterations = None, 0
        if decides is not None:
            found = self._cached_verdict(e, linear, decides)
        if found is None:
            try:
                s, iterations, capped = self._search(e, linear, opts,
                                                     decides)
            except _Decided as stop:
                *found, iterations = stop.args
        if found is not None:
            s, value = found
            if value == -np.inf:
                return self._farkas(k, s, iterations, passes)
            return value, self.point(s, e, linear), SolveInfo(
                False, iterations, np.nan, False, self.passes - passes,
                "decided")
        if self.certifies(e, s):
            return self._farkas(k, s, iterations, passes)
        vec = self.point(s, e, linear)
        self.s_last = s
        if decides is not None:
            # a step that did not decide reads only the value: skip the
            # closing evaluation and its eigh of every witness block
            return self.bound(s, e, linear), vec, SolveInfo(
                not capped, iterations, np.nan, False, self.passes - passes,
                "max_iter" if capped else "converged")
        f, g = obj.value_grad(vec)
        pg_norm = obj.grad_norm(vec, g)
        converged = pg_norm <= 10 * opts.tol
        termination = ("max_iter" if capped else
                       "converged" if converged else "line_search")
        return f, vec, SolveInfo(converged, iterations, pg_norm, False,
                                 self.passes - passes, termination)


class _Decided(Exception):
    """Ends the witness search; args (s, bound(s), evaluations) at the
    first bound that makes the caller's `decides` true."""


def _minimize(h, cs: ConstraintSet, e: float, opts: SolverOptions,
              init: np.ndarray, problem: DualProblem, linear: bool,
              decides):
    """The solve behind `minimize_dual` and `lin_dual_minimize`."""
    opts = opts or SolverOptions()
    problem = problem or prepare_dual(h, cs)
    if problem.envelope is not None:
        return problem.envelope.solve(e, opts, linear, decides)
    obj = _BlockObjective(problem, e, linear)
    # start at the entropy maximizer for H alone: the Gibbs point
    # mu = -beta(E), or the impurity maximizer rho* = (lam I + mu H) / 2
    x0 = np.zeros(obj.n_free + problem.n_wit
                  + sum(2 * xl.size for xl in problem.x_layouts))
    if linear:
        x0[0], x0[1] = _linear_multipliers(problem.spectrum, e)
    else:
        x0[0] = -beta_from_energy(problem.spectrum, e)
    if init is not None and init.size == x0.size:
        xi = obj.project(init)
        if obj.value_grad(xi)[0] < obj.value_grad(x0)[0]:
            x0 = xi
    vec, f, info = _spg(obj, x0, opts, decides=decides)
    return f, vec, info


def minimize_dual(h, cs: ConstraintSet, e: float, opts: SolverOptions = None,
                  init: np.ndarray = None, problem: DualProblem = None,
                  decides=None):
    """Minimize the von Neumann dual; returns (s_upper, vec, info), vec the
    packed point mu, nu_i, X_A.

    With at most one witness and no cuts the witness path solves it (see
    `_Envelope`; `init` is not used there).  Otherwise SPG starts from the
    Gibbs point (mu = -beta(E), nu = X = 0), or from `init`, a vec of an
    earlier solve, where that is lower, so the value never exceeds
    S_Gibbs(E).  `problem` is `prepare_dual(h, cs)`, to prepare once for
    many solves.  Where no state meets the constraints at energy e, the
    solve returns -inf at a Farkas certificate with `info.infeasible` set.

    `decides`, a predicate on a dual value, asks a yes-or-no question
    instead of the optimum: the solve stops at the first feasible point
    whose value makes it true and returns that point and value with
    `info.termination` "decided" (a Farkas certificate found first still
    returns -inf).  Every feasible point's value is an upper bound (weak
    duality), so a true answer is certified; a false one needs the full
    solve, which then runs as without `decides`, except that the witness
    path returns its optimum's value without the closing gradient
    (`info.grad_norm` nan).
    """
    return _minimize(h, cs, e, opts, init, problem, False, decides)


# ---------------------------------------------------------------------------
# linear-entropy dual

def lin_dual_minimize(h, cs: ConstraintSet, e: float,
                      opts: SolverOptions = None, init: np.ndarray = None,
                      problem: DualProblem = None, decides=None):
    """Upper bound on the maximal constrained linear entropy (impurity).

    Minimizes 1/4 tr(lam*I + mu*H + sum nu_i W_i + X0 + sum X_A^(T_A))^2
    + 1 - lam - mu*E over lam, mu real, nu >= 0, X0 and X_A PSD, by SPG;
    the slack X0 = (.)_- is eliminated in closed form, leaving the positive
    part.  Returns (value, vec, info), vec the packed point lam, mu, nu_i,
    X_A; `init` and `problem` are as in `minimize_dual`, whose witness path
    this dual shares, and SPG starts from the impurity maximizer
    (lam, mu, 0, 0).  The value is -inf at a Farkas certificate, and
    `decides` stops the solve early, as in `minimize_dual`."""
    return _minimize(h, cs, e, opts, init, problem, True, decides)


# ---------------------------------------------------------------------------
# energy scans

@dataclass
class GridOptions:
    n_points: int = 40
    e_lo: float | None = None
    e_hi: float | None = None
    bisect_iters: int = 40
    gap_tolerance: float | None = None  # default depends on the entropy kind
    entropy: str = "von-neumann"  # or "linear"

    def resolved_gap_tolerance(self) -> float:
        if self.gap_tolerance is not None:
            return self.gap_tolerance
        return (GAP_TOLERANCE_LINEAR if self.entropy.startswith("lin")
                else GAP_TOLERANCE)


def gap_energy_scan(h, cs: ConstraintSet, grid: GridOptions = None,
                    opts: SolverOptions = None) -> GapScanResult:
    """Scan the energy axis, record the entropy gap per point, and locate
    the detection window edges by bisection on gap = gap_tolerance.  The
    problem is prepared once and shared by every solve of the scan.  On
    the witness path E_min,W is certified first, and an energy below it is
    infeasible without a solve.

    Every grid row is a full solve, since its S_dual is reported.  A
    bisection step reads only whether s_ref - S_dual > gap_tolerance, so
    its solve stops at the first feasible point whose value passes that
    test (termination "decided": by weak duality the point certifies
    detection); a step that does not detect still runs the full solve.
    The result counts the steps and the decided ones."""
    grid = grid or GridOptions()
    opts = opts or SolverOptions()
    problem = prepare_dual(h, cs)
    spectrum = problem.spectrum
    env = problem.envelope
    e_min_w = env.e_min_w() if env is not None and problem.n_wit else None
    e0 = float(spectrum.min())
    e_top = float(spectrum.max())
    e_inf = float(spectrum.mean())
    spread = e_inf - e0
    lo = grid.e_lo if grid.e_lo is not None else e0 + 1e-6 * spread
    hi = grid.e_hi if grid.e_hi is not None else e_inf
    linear = grid.entropy.startswith("lin")
    gap_tol = grid.resolved_gap_tolerance()

    solve = lin_dual_minimize if linear else minimize_dual
    init = None  # each solve warm-starts from the last one's point

    def gap_at(e, verdict=False):
        nonlocal init
        s_ref = (linear_entropy_max(spectrum, e) if linear else
                 gibbs_at(spectrum, beta_from_energy(spectrum, e))[2])
        if e_min_w is not None and e < e_min_w:
            return s_ref, -np.inf, SolveInfo(True, 0, np.nan, True, 0,
                                             "certificate")
        # the very test that flags a row detected, so no verdict disagrees
        decides = (lambda value: s_ref - value > gap_tol) if verdict else None
        s_dual, init, info = solve(h, cs, e, opts, init, problem,
                                   decides=decides)
        return s_ref, s_dual, info

    rows = []
    for e in np.linspace(lo, hi, grid.n_points):
        beta = beta_from_energy(spectrum, e)
        s_ref, s_dual, info = gap_at(e)
        delta = s_ref - s_dual
        rows.append(ScanRow(float(e), float(beta), s_ref, s_dual, delta,
                            delta > gap_tol, info.converged,
                            info.infeasible))

    detected = [r.detected for r in rows]
    e_min_gap = e_max_gap = None
    steps = decided = 0
    if any(detected):
        first = detected.index(True)
        last = len(detected) - 1 - detected[::-1].index(True)

        def bisect(e_out, e_in):
            # gap(e_in) > tol, gap(e_out) <= tol
            nonlocal steps, decided
            for _ in range(grid.bisect_iters):
                mid = 0.5 * (e_out + e_in)
                s_ref, s_dual, info = gap_at(mid, verdict=True)
                steps += 1
                decided += info.termination == "decided"
                if s_ref - s_dual > gap_tol:
                    e_in = mid
                else:
                    e_out = mid
                if abs(e_in - e_out) < 1e-10 * max(abs(spread), 1.0):
                    break
            return 0.5 * (e_out + e_in)

        e_min_gap = rows[first].e if first == 0 else \
            bisect(rows[first - 1].e, rows[first].e)
        e_max_gap = rows[last].e if last == len(rows) - 1 else \
            bisect(rows[last + 1].e, rows[last].e)
    frac = 0.0 if e_max_gap is None else (e_max_gap - e0) / (e_top - e0)
    return GapScanResult(rows, e0, e_top, e_min_gap, e_max_gap, float(frac),
                         bool(detected and detected[0]), e_min_w,
                         problem.path, problem.fallback, problem.block_sizes,
                         steps, decided)


# ---------------------------------------------------------------------------
# PPT minimum energy (Anderson-accelerated consensus ADMM, dual certificate)

@dataclass
class PPTResult:
    value: float            # certified lower bound on min tr(rho H)
    primal_value: float     # energy of rho, a PPT state: an upper bound
    residual: float         # primal_value - value, the bracket's width
    converged: bool
    rho: np.ndarray
    iterations: int = 0     # ADMM sweeps run, rejected extrapolations too
    rejected: int = 0       # extrapolations the safeguard threw away


ANDERSON_MEMORY = 10     # iterates (and their images) the extrapolation mixes
ANDERSON_REG = 1e-10     # Tikhonov weight, relative to the Gram trace
PPT_CHECK_EVERY = 10     # sweeps between certificates


def _simplex_project(w: np.ndarray) -> np.ndarray:
    """Euclidean projection of eigenvalues onto the probability simplex."""
    u = np.sort(w)[::-1]
    css = np.cumsum(u) - 1.0
    k = np.arange(1, w.size + 1)
    cond = u - css / k > 0
    rho = k[cond][-1]
    theta = css[cond][-1] / rho
    return np.maximum(w - theta, 0.0)


class _Anderson:
    """Type-II Anderson extrapolation (Walker & Ni, SIAM J. Numer. Anal. 49
    (2011)) of a fixed-point map T from its last ANDERSON_MEMORY iterates x
    and their images g = T(x): the next point is g_k - dG gamma, with gamma
    the Tikhonov-regularised least-squares fit of the residual differences
    dF to f_k = g_k - x_k.  The iterates are packed Hermitian matrices, so
    gamma is real: the Gram matrix is m x m, the real parts of the complex
    inner products, taken as dot products of the real views.  The
    differences sit in a ring buffer, so a step copies no history."""

    def __init__(self, size: int):
        self.df = np.empty((ANDERSON_MEMORY - 1, 2 * size))
        self.dg = np.empty_like(self.df)
        self.clear()

    def clear(self):
        self.count, self.last = 0, None

    def push(self, x, g):
        f, g = (g - x).view(float), g.view(float)
        if self.last is not None:
            k = self.count % len(self.df)
            self.df[k] = f - self.last[0]
            self.dg[k] = g - self.last[1]
            self.count += 1
        self.last = f, g

    def step(self) -> np.ndarray:
        """The extrapolated point; the last image while no difference is
        stored."""
        f, g = self.last
        k = min(self.count, len(self.df))
        if k == 0:
            return g.view(complex)
        df, dg = self.df[:k], self.dg[:k]
        gram = df @ df.T
        reg = ANDERSON_REG * max(np.trace(gram), np.finfo(float).tiny)
        gamma = np.linalg.solve(gram + reg * np.eye(k), df @ f)
        return (g - gamma @ dg).view(complex)


def ppt_energy_min(h, cuts, sigma: float = None, tol: float = 1e-9,
                   cert_tol: float = 1e-5, max_iter: int = 20000) -> PPTResult:
    """min tr(rho H) over states PSD under partial transposition on every
    cut, by consensus ADMM (alternating projections onto the density and
    PT-PSD sets) with safeguarded Anderson acceleration, bracketed to
    within cert_tol.

    One ADMM sweep is a map T on the packed state x = (z0, z_A, u0, u_A),
    and each step extrapolates it (`_Anderson`).  An extrapolated x whose
    residual |T(x) - x| exceeds the last accepted point's is rejected, and
    the plain sweep from that point is taken with the memory cleared
    (Zhang, O'Donoghue & Boyd, SIAM J. Optim. 30 (2020)).  `iterations`
    counts every sweep, `rejected` the extrapolations thrown away.

    Every PPT_CHECK_EVERY sweeps, the image T(x) gives both sides of a
    bracket, whatever the extrapolation did:
    - `value` = lam_min(H - sum_A Y_A^(T_A)), Y_A = P_PSD(-sigma u_A): for
      any PSD Y_A and PPT rho, tr(rho H) >= that, a certified lower bound;
    - `rho` = (1 - t) z0 + t I / d, z0 a state by construction and t the
      least weight that makes every partial transpose PSD; `primal_value`
      = tr(rho H) is then attained by a PPT state.
    `residual` = primal_value - value bounds the distance of both to the
    optimum, and the solve stops once it is <= cert_tol.

    rho and its copy z0 live in the magnetization sectors, and each copy
    z_A of rho^(T_A) in the blocks of the cut's twisted charge (see
    `_cut_layouts`); from the start I / d every iterate stays in them.
    Where H does not conserve magnetization, or the sites are not qubits,
    each is one dense block."""
    cuts = tuple(cuts)
    if not cuts:
        raise ValueError("need at least one cut")
    _, _, h_blocks, _, _, mag = _blocks_for(h, ConstraintSet(map_slots=cuts))
    d = sum(hb.shape[0] for hb in h_blocks)
    lay, x_layouts, pt = _cut_layouts(mag, cuts, _local_dims(h, d))
    hp = lay.pack(h_blocks)
    h_mean = float(hp[lay.diagonal].real.sum()) / d
    n_c = len(cuts)
    scale = max(np.abs(hp).max(), 1.0)
    sigma = sigma if sigma is not None else float(scale)
    sizes = [lay.size] + [xl.size for xl in x_layouts]
    edges = np.cumsum(sizes * 2)[:-1]

    def parts(x):  # z0, [z_A], u0, [u_A]
        p = np.split(x, edges)
        return p[0], p[1:n_c + 1], p[n_c + 1], p[n_c + 2:]

    def sweep(x):
        z0, za, u0, ua = parts(x)
        acc = (z0 - u0) - hp / sigma
        for zi, ui, (to_m, _) in zip(za, ua, pt):
            acc = acc + (zi - ui)[to_m]
        rho = acc / (1.0 + n_c)
        w, vecs = lay.eigh(lay.hermitian(rho + u0))
        z0_new = lay.compose(vecs, _simplex_project(w))
        rho_a = [rho[to_x] for _, to_x in pt]
        za_new = [xl.psd_project(ra + ui)
                  for ra, ui, xl in zip(rho_a, ua, x_layouts)]
        r_prim = np.linalg.norm(rho - z0_new)
        for ra, zi in zip(rho_a, za_new):
            r_prim = max(r_prim, np.linalg.norm(ra - zi))
        return np.concatenate(
            [z0_new, *za_new, u0 + rho - z0_new,
             *(ui + ra - zi for ui, ra, zi in zip(ua, rho_a, za_new))]), \
            r_prim

    def bracket(g):
        z0, _, _, ua = parts(g)
        viol = 0.0
        for (_, to_x), xl in zip(pt, x_layouts):
            viol = max(viol, float(-xl.eigvalsh(z0[to_x]).min()))
        t = d * viol / (1.0 + d * viol)
        primal = (1.0 - t) * float(np.vdot(z0, hp).real) + t * h_mean
        ys = [xl.psd_project(-sigma * ui) for ui, xl in zip(ua, x_layouts)]
        m = hp.copy()
        for y, (to_m, _) in zip(ys, pt):
            m = m - y[to_m]
        lower = float(lay.eigvalsh(lay.hermitian(m)).min())
        rho = (1.0 - t) * z0
        rho[lay.diagonal] += t / d
        return PPTResult(lower, primal, primal - lower,
                         primal - lower <= cert_tol, lay.dense(rho))

    z0 = np.zeros(lay.size, dtype=complex)
    z0[lay.diagonal] = 1.0 / d
    x = np.concatenate([z0] + [z0[to_x] for _, to_x in pt]
                       + [np.zeros(sum(sizes), dtype=complex)])
    g, r_prim = sweep(x)
    f_norm = np.linalg.norm(g - x)
    mix = _Anderson(x.size)
    mix.push(x, g)
    best, it, rejected, check_at = None, 1, 0, PPT_CHECK_EVERY
    while True:
        if it >= check_at or r_prim < tol or it >= max_iter:
            check_at = it + PPT_CHECK_EVERY
            res = bracket(g)
            if best is None or res.residual < best.residual:
                best = res
            if best.converged or it >= max_iter:
                return replace(best, iterations=it, rejected=rejected)
        extrapolated = mix.count > 0
        x_new = mix.step()
        g_new, r_new = sweep(x_new)
        it += 1
        f_new = np.linalg.norm(g_new - x_new)
        if extrapolated and f_new > f_norm:
            # the safeguard: the plain sweep from the last accepted point
            rejected += 1
            mix.clear()
            if it >= max_iter:  # no sweep left for the plain step
                continue
            x_new = g
            g_new, r_new = sweep(x_new)
            it += 1
            f_new = np.linalg.norm(g_new - x_new)
        mix.push(x_new, g_new)
        g, r_prim, f_norm = g_new, r_new, f_new


# ---------------------------------------------------------------------------
# diagonal (ground-state witness) dual

def diagonal_dual(spectrum, alpha: float, ground_count: int, e: float,
                  tol: float = 1e-9):
    """Minimize ln sum_i exp(mu E_i + nu (alpha - delta_i)) - mu E over
    mu real, nu >= 0, where delta_i = 1 on the first `ground_count`
    entries of the ascending spectrum.  Returns (s_upper, mu*, nu*).

    This is the witness path on one block, H = diag(E_i) with the witness
    W = diag(alpha - delta_i); s_upper is -inf, at the Farkas certificate
    (-1, nu), where no state at energy e has ground weight <= alpha."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    w = np.sort(np.asarray(spectrum, dtype=float))
    delta = np.zeros(w.size)
    delta[:ground_count] = 1.0
    cs = ConstraintSet((Witness(np.diag(alpha - delta)),))
    val, (mu, nu), _ = minimize_dual(np.diag(w), cs, e,
                                     SolverOptions(tol=tol))
    return float(val), float(mu), float(nu)


def theorem3_check(alpha: float, beta: float, spectrum) -> bool:
    """True when ln(alpha) < -beta*E0 - lnZ, i.e. the ground-state
    witness detects the Gibbs state at inverse temperature beta."""
    w = np.asarray(spectrum, dtype=float)
    lnz = gibbs_at(w, beta)[0]
    return bool(np.log(alpha) < -beta * w.min() - lnz)


# ---------------------------------------------------------------------------
# entropy-gap lower bounds

def gap_lower_bound(h, cs: ConstraintSet, beta: float,
                    vec: np.ndarray) -> float:
    """ln [tr exp(-beta H) / tr exp(-beta H + sum nu_i W_i + sum X^(T_A))]
    for any feasible packed point (mu, nu_i >= 0, PSD X_A in the blocks of
    `prepare_dual(h, cs).x_layouts`) of the von Neumann dual, mu ignored;
    no optimization involved."""
    vec = np.array(vec, dtype=float)
    if np.any(vec[1:1 + len(cs.witnesses)] < -1e-12):
        raise ValueError("witness multipliers must be nonnegative")
    vec[0] = -beta
    problem = prepare_dual(h, cs)
    ln_tr = _BlockObjective(problem, 0.0).value_grad(vec)[0]
    return float(gibbs_at(problem.spectrum, beta)[0] - ln_tr)


def bell_gap_bound(beta: float, d: float, nu: float) -> float:
    """Closed-form entropy-gap lower bound for the Bell-staircase model,
    evaluated in log space from geometric sums; valid for any d >= 2,
    beta > 0, nu >= 0 and never materializes matrices."""
    if d < 2 or beta <= 0 or nu < 0:
        raise ValueError("need d >= 2, beta > 0, nu >= 0")
    d = float(d)

    def ln_geom(n_terms: float) -> float:
        # ln sum_{k=0}^{n_terms-1} e^{-beta k}
        x = beta * n_terms
        num = np.log1p(-np.exp(-x)) if x < 700 else 0.0
        return num - np.log1p(-np.exp(-beta))

    ln_all = ln_geom(d * d)
    ln_first = ln_geom(d)
    ln_tail_body = ln_geom(d * d - d)
    ln_tail = -beta * d + ln_tail_body
    ln_den = np.logaddexp(ln_first - nu * (1.0 - 1.0 / d),
                          ln_tail + nu / d)
    return float(ln_all - ln_den)
