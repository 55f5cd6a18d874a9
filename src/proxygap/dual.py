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
usable upper bound.  A solve stops at the first feasible point with
lam_max(M) < b.y, M the exponent: every state that met the constraints
would have b.y <= tr(rho M) <= lam_max(M), so none exists, the dual is
unbounded below and the solve returns -inf with that point as a Farkas
certificate.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize
from scipy.special import logsumexp

from .linalg import (HermitianOperator, LinalgError,
                     partial_transpose_matrix, psd_project_matrix)
from .models import (is_translation_invariant, momentum_sector_split,
                     sector_split_sparse)
from .thermo import (_linear_entropy_weights, beta_from_energy, gibbs_at,
                     linear_entropy_max)
from .witness import ConstraintSet

GAP_TOLERANCE = 1e-4       # nats; "detected" threshold, von Neumann path
GAP_TOLERANCE_LINEAR = 1e-6  # converged linear duals lie ~1e-12 above optimum
# relative margin by which lam_max(M) must undercut b.y before a point counts
# as a Farkas certificate: covers the rounding of eigh and of b.y
FARKAS_MARGIN = 1e-9


@dataclass
class DualPoint:
    mu: float
    nus: np.ndarray
    xs: list  # PSD matrices aligned with cs.map_slots

    def copy(self) -> "DualPoint":
        return DualPoint(self.mu, np.array(self.nus, dtype=float),
                         [np.array(x) for x in self.xs])


@dataclass
class SolveInfo:
    converged: bool
    iterations: int
    grad_norm: float  # norm of the projected gradient
    # the returned point is a Farkas certificate: no state meets the
    # constraints at this energy, and the bound is -inf
    infeasible: bool = False


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

def _blocks_for(h, cs: ConstraintSet):
    """Express H and all witnesses as magnetization blocks, refined by
    momentum when all are translation invariant (Gatermann & Parrilo, JPAA
    2004; Sandvik, arXiv:1101.3281 sec. 4).

    Returns (path, fallback, h_blocks, w_blocks per witness).  path is
    "momentum", "sector" or "dense", where there are no blocks; fallback
    says why no finer path was taken, or is None."""
    if cs.map_slots:
        return "dense", "PPT cuts", None, None
    if not (isinstance(h, HermitianOperator) or sp.issparse(h)):
        return "dense", "array input", None, None
    hs = h.sparse if isinstance(h, HermitianOperator) else h.tocsr()
    dims = _local_dims(h, hs.shape[0])
    if any(d != 2 for d in dims):
        return "dense", "not qubits", None, None
    n = len(dims)
    w_sparse = [w.matrix.tocsr() for w in cs.witnesses]
    try:
        sb = sector_split_sparse(hs, n)
        w_sb = [sector_split_sparse(ws, n) for ws in w_sparse]
    except LinalgError:
        return "dense", "does not conserve magnetization", None, None
    ops = [hs] + w_sparse
    if all(is_translation_invariant(o, n) for o in ops):
        try:
            fine = momentum_sector_split(ops, n)
            return ("momentum", None, [bl[0] for bl in fine],
                    [[bl[1 + i] for bl in fine] for i in range(len(w_sparse))])
        except LinalgError as exc:
            fallback = str(exc)
    else:
        fallback = "not translation invariant"
    return ("sector", fallback, [s.block for s in sb.sectors],
            [[s.block for s in wsb.sectors] for wsb in w_sb])


@dataclass
class DualProblem:
    """H and a constraint set, prepared for any number of dual solves.

    `blocks` holds (H block, [witness block, or None where the witness
    vanishes]) for every symmetry block with witness support.  With PPT
    cuts, or when no split applies, the dense H is the only block.  `free`
    holds the fixed spectra of the witness-free blocks and `spectrum` the
    sorted spectrum of H.  `path` is the split taken ("momentum", "sector"
    or "dense") and `fallback` why no finer one was, or None."""
    blocks: list
    free: np.ndarray
    spectrum: np.ndarray
    dims: tuple   # local dimensions, for the partial transposes
    cuts: tuple
    x_dims: list  # the dimension of each X_A
    n_wit: int
    path: str
    fallback: str | None


def prepare_dual(h, cs: ConstraintSet) -> DualProblem:
    """Split H and the witnesses into symmetry blocks once; pass the result
    as `problem` to every solve on the same H and constraint set."""
    n_wit = len(cs.witnesses)
    path, fallback, h_blocks, w_blocks = _blocks_for(h, cs)
    if h_blocks is None:
        hmat = _operator_matrix(h)
        d = hmat.shape[0]
        return DualProblem([(hmat, [w.to_dense() for w in cs.witnesses])],
                           np.zeros(0), np.linalg.eigvalsh(hmat),
                           _local_dims(h, d), cs.map_slots,
                           [d] * len(cs.map_slots), n_wit, path, fallback)
    blocks, free, eigs = [], [], []
    for bi, hb in enumerate(h_blocks):
        wbs = [wb[bi] if np.abs(wb[bi]).max() > 0 else None
               for wb in w_blocks]
        eigs.append(np.linalg.eigvalsh(hb))
        if any(wb is not None for wb in wbs):
            blocks.append((hb, wbs))
        else:
            free.append(eigs[-1])
    return DualProblem(blocks, np.concatenate([np.zeros(0)] + free),
                       np.sort(np.concatenate(eigs)), (), (), [], n_wit,
                       path, fallback)


# ---------------------------------------------------------------------------
# the dual objective

def _log_tr_exp(w):
    """ln sum_i exp(w_i) and its gradient softmax(w)."""
    shift = w.max()
    ew = np.exp(w - shift)
    z = ew.sum()
    return np.log(z) + shift, ew / z


def _quarter_square_plus(w):
    """1 + 1/4 sum_i (w_i)_+^2 and its gradient (w)_+ / 2."""
    wp = np.maximum(w, 0.0)
    return 0.25 * float(wp @ wp) + 1.0, 0.5 * wp


class _BlockObjective:
    """Value and gradient of the dual over the blocks of a problem.

    The packed variables are (lam,) mu, nu_i, X_A; lam, the multiplier of
    tr(rho) = 1, only for the linear entropy (ln tr exp normalizes by
    itself).  Each block with witness support is diagonalized, M = v w v^+;
    a witness-free block adds mu times its fixed spectrum.  With
    G = v F'(w) v^+ per block, the gradient is tr(G A_k) - b_k in each
    scalar and G^(T_A) in each X_A: for the von Neumann dual, the moments
    and partial transposes of sigma = exp(M) / tr exp(M).

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

    def project(self, vec):
        """The nearest feasible point: nu >= 0 and PSD X_A."""
        p = self.problem
        return _project_vec(vec, self.n_free, p.n_wit, p.x_dims)

    def grad_norm(self, vec, g) -> float:
        """The projected gradient norm at a feasible point."""
        p = self.problem
        return _projected_grad_norm(vec, g, self.n_free, p.n_wit, p.x_dims)

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
        xs = _unpack_xs(vec, k + p.n_wit, p.x_dims)
        exps = [mu * p.free + lam] if p.free.size else []
        vecs = []
        for hb, wbs in p.blocks:
            m = mu * hb
            if self.linear:
                m.flat[::m.shape[0] + 1] += lam  # + lam I
            for nu, wb in zip(nus, wbs):
                if nu != 0.0 and wb is not None:
                    m = m + nu * wb
            for x, cut in zip(xs, p.cuts):
                m = m + partial_transpose_matrix(x, p.dims, cut.subset_mask)
            w, v = np.linalg.eigh((m + m.conj().T) / 2)
            exps.append(w)
            vecs.append(v)
        w = np.concatenate(exps) if len(exps) > 1 else exps[0]
        f, weights = self.spectral(w)
        by = lam + mu * self.e
        w_max = float(w.max())
        self.slack = w_max - by
        self.margin = FARKAS_MARGIN * (1.0 + abs(by)
                                       + max(w_max, -float(w.min())))
        off = p.free.size
        # tr G and tr(G A_k), the free blocks' share first
        tr_g = float(weights[:off].sum()) if off else 0.0
        h_g = float(weights[:off] @ p.free) if off else 0.0
        w_g = [0.0] * p.n_wit
        gxs = []
        for (hb, wbs), v in zip(p.blocks, vecs):
            wt = weights[off:off + v.shape[1]]
            off += v.shape[1]
            g = (v * wt) @ v.conj().T
            h_g += float(np.real(np.sum(g.T * hb)))
            if self.linear:
                tr_g += float(np.real(np.trace(g)))
            for i, wb in enumerate(wbs):
                if wb is not None:
                    w_g[i] += float(np.real(np.sum(g.T * wb)))
            for cut in p.cuts:
                gx = partial_transpose_matrix(g, p.dims, cut.subset_mask)
                gxs.append(np.ascontiguousarray(gx).view(float).ravel())
        grad = ([tr_g - 1.0] if self.linear else []) + [h_g - self.e] + w_g
        return float(f - lam - mu * self.e), np.concatenate([grad] + gxs)


# ---------------------------------------------------------------------------
# projected minimization

def _pack(p: DualPoint) -> np.ndarray:
    parts = [np.array([p.mu]), np.asarray(p.nus, dtype=float)]
    for x in p.xs:
        parts.append(np.ascontiguousarray(x, dtype=complex).view(float).ravel())
    return np.concatenate(parts)


def _unpack_xs(vec: np.ndarray, off: int, x_dims) -> list:
    xs = []
    for d in x_dims:
        size = 2 * d * d
        xs.append(vec[off:off + size].copy().view(complex).reshape(d, d))
        off += size
    return xs


def _unpack(vec: np.ndarray, n_wit: int, x_dims) -> DualPoint:
    return DualPoint(float(vec[0]), vec[1:1 + n_wit].copy(),
                     _unpack_xs(vec, 1 + n_wit, x_dims))


def _project_vec(vec, n_free, n_wit, x_dims):
    """Project packed variables (n_free free scalars, then nu_i, then X_A)
    onto nu >= 0 and PSD X_A."""
    out = vec.copy()
    out[n_free:n_free + n_wit] = np.maximum(out[n_free:n_free + n_wit], 0.0)
    off = n_free + n_wit
    for x in _unpack_xs(vec, off, x_dims):
        size = 2 * x.size
        out[off:off + size] = np.ascontiguousarray(
            psd_project_matrix(x)).view(float).ravel()
        off += size
    return out


def _projected_grad_norm(x, g, n_free, n_wit, x_dims) -> float:
    """||P(x - g) - x|| at a feasible x, zero exactly at a minimizer.  The
    scalars are stepped as -g and max(-g, -nu), so that g is not lost to
    rounding where |x| >> |g| far out on an unbounded ray."""
    step = _project_vec(x - g, n_free, n_wit, x_dims) - x
    step[:n_free] = -g[:n_free]
    nus = slice(n_free, n_free + n_wit)
    step[nus] = np.maximum(-g[nus], -x[nus])
    return float(np.linalg.norm(step))


def _spg(obj: _BlockObjective, x0, opts: SolverOptions, memory=10):
    """Spectral projected gradient (Barzilai-Borwein steps, nonmonotone
    Armijo line search; Birgin, Martinez & Raydan, SIAM J. Optim. 10, 1196
    (2000)) for a dual objective over its feasible set.

    Every trial point is a convex combination of feasible points; the
    solve stops at the first one that `obj.proves_infeasible()` after its
    `value_grad`, and returns it with the value -inf."""
    fun_grad, project, grad_norm = obj.value_grad, obj.project, obj.grad_norm
    tol, max_iter = opts.tol, opts.max_iter
    x = project(x0)
    f, g = fun_grad(x)
    hist = [f]
    alpha = 1.0 / max(np.linalg.norm(g), 1e-8)
    best_x, best_f = x.copy(), f
    it = 0
    pg_norm = np.inf
    for it in range(1, max_iter + 1):
        pg_norm = grad_norm(x, g)
        if pg_norm <= tol:
            break
        d = project(x - alpha * g) - x
        dg = float(np.dot(d, g))
        if dg > -1e-18:
            alpha = max(alpha * 0.1, 1e-12)
            d = project(x - alpha * g) - x
            dg = float(np.dot(d, g))
            if dg > -1e-18:
                break
        lam = 1.0
        fmax = max(hist[-memory:])
        while True:
            xn = x + lam * d
            fn, gn = fun_grad(xn)
            if obj.proves_infeasible():
                return xn, -np.inf, SolveInfo(True, it, grad_norm(xn, gn),
                                              True)
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
    return x, f, SolveInfo(pg_norm <= tol * 10, it, float(pg_norm))


class _Certificate(Exception):
    """Raised out of scipy's minimizer at a Farkas certificate x."""

    def __init__(self, x, g):
        super().__init__()
        self.x, self.g = x, g


@dataclass
class SolverOptions:
    tol: float = 1e-7
    max_iter: int = 2000


def minimize_dual(h, cs: ConstraintSet, e: float, opts: SolverOptions = None,
                  init: DualPoint = None, problem: DualProblem = None):
    """Minimize the von Neumann dual; returns (s_upper, point, info).

    Starts from the Gibbs point (mu = -beta(E), nu = X = 0) so the initial
    value equals S_Gibbs(E) and descent only improves the certificate.
    Scalar variables alone (no PPT cuts) are solved by L-BFGS-B, blockwise
    where H and the witnesses split; matrix variables by SPG.  `problem` is
    `prepare_dual(h, cs)`, to prepare once for many solves.  Where no state
    meets the constraints at energy e, the solve stops at a Farkas
    certificate and returns -inf with `info.infeasible` set.
    """
    opts = opts or SolverOptions()
    problem = problem or prepare_dual(h, cs)
    obj = _BlockObjective(problem, e)
    n_wit, x_dims = problem.n_wit, problem.x_dims
    x0 = _pack(DualPoint(-beta_from_energy(problem.spectrum, e),
                         np.zeros(n_wit),
                         [np.zeros((d, d), dtype=complex) for d in x_dims]))
    if init is not None and len(init.xs) == len(x_dims):
        xi = obj.project(_pack(init))
        if obj.value_grad(xi)[0] < obj.value_grad(x0)[0]:
            x0 = xi
    if x_dims:
        x, f, info = _spg(obj, x0, opts)
        return f, _unpack(x, n_wit, x_dims), info
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    def fun(vec):  # L-BFGS-B evaluates only points within the bounds
        f, g = obj.value_grad(vec)
        if obj.proves_infeasible():
            raise _Certificate(vec.copy(), g)
        return f, g

    try:
        res = minimize(fun, x0, jac=True, method="L-BFGS-B",
                       bounds=[(None, None)] + [(0.0, None)] * n_wit,
                       callback=count,
                       options={"maxiter": opts.max_iter, "ftol": 1e-14,
                                "gtol": opts.tol})
    except _Certificate as cert:
        return -np.inf, _unpack(cert.x, n_wit, x_dims), SolveInfo(
            True, iterations, obj.grad_norm(cert.x, cert.g), True)
    x = obj.project(res.x)
    f, g = obj.value_grad(x)
    pg_norm = obj.grad_norm(x, g)
    return f, _unpack(x, n_wit, x_dims), \
        SolveInfo(pg_norm <= 10 * opts.tol, int(res.nit), pg_norm)


def entropy_gap(h, cs: ConstraintSet, e: float, opts: SolverOptions = None,
                init: DualPoint = None) -> float:
    """S_Gibbs(E) minus the dual upper bound; > 0 certifies entanglement."""
    problem = prepare_dual(h, cs)
    s_gibbs = gibbs_at(problem.spectrum,
                       beta_from_energy(problem.spectrum, e))[2]
    return s_gibbs - minimize_dual(h, cs, e, opts, init, problem)[0]


# ---------------------------------------------------------------------------
# linear-entropy dual

def lin_dual_minimize(h, cs: ConstraintSet, e: float,
                      opts: SolverOptions = None, init: np.ndarray = None,
                      problem: DualProblem = None):
    """Upper bound on the maximal constrained linear entropy (impurity).

    Minimizes 1/4 tr(lam*I + mu*H + sum nu_i W_i + X0 + sum X_A^(T_A))^2
    + 1 - lam - mu*E over lam, mu real, nu >= 0, X0 and X_A PSD, by SPG;
    the slack X0 = (.)_- is eliminated in closed form, leaving the positive
    part.  Returns (value, vec, info); pass the vec back as `init` to
    warm-start a nearby solve, and `problem` as in `minimize_dual`.  The
    value is -inf at a Farkas certificate, as in `minimize_dual`."""
    opts = opts or SolverOptions()
    problem = problem or prepare_dual(h, cs)
    obj = _BlockObjective(problem, e, linear=True)

    # start at the unconstrained impurity maximizer, rho* = (lam*I + mu*H)/2
    spec = problem.spectrum
    x0 = np.zeros(2 + problem.n_wit
                  + sum(2 * d * d for d in problem.x_dims))
    p = _linear_entropy_weights(spec, float(np.clip(e, spec.min(),
                                                    spec.mean())))
    sup = p > 0
    if sup.sum() >= 2:
        a = np.polyfit(spec[sup], p[sup], 1)
        x0[0], x0[1] = 2.0 * a[1], 2.0 * a[0]
    else:
        x0[0] = 2.0 / spec.size
    if init is not None and init.size == x0.size:
        pi = obj.project(init)
        if obj.value_grad(pi)[0] < obj.value_grad(x0)[0]:
            x0 = pi
    vec, f, info = _spg(obj, x0, opts)
    return f, vec, info


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
    problem is prepared once and shared by every solve of the scan."""
    grid = grid or GridOptions()
    opts = opts or SolverOptions()
    problem = prepare_dual(h, cs)
    spectrum = problem.spectrum
    e0 = float(spectrum.min())
    e_top = float(spectrum.max())
    e_inf = float(spectrum.mean())
    spread = e_inf - e0
    lo = grid.e_lo if grid.e_lo is not None else e0 + 1e-6 * spread
    hi = grid.e_hi if grid.e_hi is not None else e_inf
    linear = grid.entropy.startswith("lin")
    gap_tol = grid.resolved_gap_tolerance()

    state = {"init": None, "lin_init": None}

    def gap_at(e):
        if linear:
            s_ref = linear_entropy_max(spectrum, e)
            s_dual, vec, info = lin_dual_minimize(h, cs, e, opts,
                                                  init=state["lin_init"],
                                                  problem=problem)
            state["lin_init"] = vec
        else:
            s_ref = gibbs_at(spectrum, beta_from_energy(spectrum, e))[2]
            s_dual, point, info = minimize_dual(h, cs, e, opts,
                                                init=state["init"],
                                                problem=problem)
            state["init"] = point
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
    if any(detected):
        first = detected.index(True)
        last = len(detected) - 1 - detected[::-1].index(True)

        def bisect(e_out, e_in):
            # gap(e_in) > tol, gap(e_out) <= tol
            for _ in range(grid.bisect_iters):
                mid = 0.5 * (e_out + e_in)
                s_ref, s_dual, _ = gap_at(mid)
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
                         bool(detected and detected[0]))


# ---------------------------------------------------------------------------
# PPT minimum energy (consensus ADMM with a dual certificate)

@dataclass
class PPTResult:
    value: float            # certified lower bound on min tr(rho H)
    primal_value: float
    residual: float         # primal-dual gap
    converged: bool
    rho: np.ndarray


def _simplex_project(w: np.ndarray) -> np.ndarray:
    """Euclidean projection of eigenvalues onto the probability simplex."""
    u = np.sort(w)[::-1]
    css = np.cumsum(u) - 1.0
    k = np.arange(1, w.size + 1)
    cond = u - css / k > 0
    rho = k[cond][-1]
    theta = css[cond][-1] / rho
    return np.maximum(w - theta, 0.0)


def _density_project(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    return (v * _simplex_project(w)) @ v.conj().T


def ppt_energy_min(h, cuts, sigma: float = None, tol: float = 1e-9,
                   cert_tol: float = 1e-5, max_iter: int = 20000) -> PPTResult:
    """min tr(rho H) over states PSD under partial transposition on every
    cut, by first-order operator splitting (consensus ADMM: alternating
    projections onto the density and PT-PSD sets), certified by a dual
    feasibility bound with gap <= cert_tol."""
    hmat = _operator_matrix(h)
    dims = _local_dims(h, hmat.shape[0])
    cuts = list(cuts)
    d = hmat.shape[0]
    n_c = len(cuts)
    scale = max(np.abs(hmat).max(), 1.0)
    sigma = sigma if sigma is not None else float(scale)
    z0 = np.eye(d, dtype=complex) / d
    za = [z0.copy() for _ in cuts]
    u0 = np.zeros((d, d), dtype=complex)
    ua = [np.zeros((d, d), dtype=complex) for _ in cuts]
    rho = z0.copy()
    best = None
    for it in range(1, max_iter + 1):
        acc = (z0 - u0) - hmat / sigma
        for zi, ui, cut in zip(za, ua, cuts):
            acc = acc + partial_transpose_matrix(zi - ui, dims,
                                                 cut.subset_mask)
        rho = acc / (1.0 + n_c)
        z0_new = _density_project(rho + u0)
        za_new = [psd_project_matrix(
            partial_transpose_matrix(rho, dims, c.subset_mask) + ui)
            for ui, c in zip(ua, cuts)]
        u0 = u0 + rho - z0_new
        ua = [ui + partial_transpose_matrix(rho, dims, c.subset_mask) - zi
              for ui, zi, c in zip(ua, za_new, cuts)]
        r_prim = np.linalg.norm(rho - z0_new)
        for zi, c in zip(za_new, cuts):
            r_prim = max(r_prim, np.linalg.norm(
                partial_transpose_matrix(rho, dims, c.subset_mask) - zi))
        z0, za = z0_new, za_new
        if it % 50 == 0 or r_prim < tol:
            # z0 is a state by construction; its PT-PSD violation plus the
            # primal-dual gap form the certificate residual
            primal = float(np.real(np.sum(z0.T * hmat)))
            viol = 0.0
            for c in cuts:
                wmin = np.linalg.eigvalsh(partial_transpose_matrix(
                    z0, dims, c.subset_mask))[0]
                viol = max(viol, float(-wmin))
            ys = [psd_project_matrix(-sigma * ui) for ui in ua]
            g = hmat.copy()
            for y, c in zip(ys, cuts):
                g = g - partial_transpose_matrix(y, dims, c.subset_mask)
            lower = float(np.linalg.eigvalsh((g + g.conj().T) / 2)[0])
            resid = max(primal - lower, 0.0) + viol * scale
            if best is None or resid < best.residual:
                best = PPTResult(lower, primal, resid, resid <= cert_tol, z0)
            if resid <= cert_tol:
                return best
    return replace(best, converged=best.residual <= cert_tol)


# ---------------------------------------------------------------------------
# diagonal (ground-state witness) dual

def diagonal_dual(spectrum, alpha: float, ground_count: int, e: float,
                  tol: float = 1e-9):
    """Minimize ln sum_i exp(mu E_i + nu (alpha - delta_i)) - mu E over
    mu real, nu >= 0, where delta_i = 1 on the first `ground_count`
    entries of the ascending spectrum.  Returns (s_upper, mu*, nu*)."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    w = np.sort(np.asarray(spectrum, dtype=float))
    delta = np.zeros(w.size)
    delta[:ground_count] = 1.0

    def value_grad(x):
        mu, nu = x
        a = mu * w + nu * (alpha - delta)
        shift = a.max()
        ew = np.exp(a - shift)
        z = ew.sum()
        p = ew / z
        val = np.log(z) + shift - mu * e
        return val, np.array([p @ w - e, p @ (alpha - delta)])

    mu0 = -beta_from_energy(w, e)
    res = minimize(value_grad, np.array([mu0, 0.0]), jac=True,
                   method="L-BFGS-B", bounds=[(None, None), (0.0, None)],
                   options={"ftol": 1e-16, "gtol": 1e-12, "maxiter": 5000})
    mu, nu = res.x
    nu = max(nu, 0.0)
    # Newton polish on the active variables
    for _ in range(50):
        x = np.array([mu, nu])
        val, g = value_grad(x)
        a = mu * w + nu * (alpha - delta)
        shift = a.max()
        ew = np.exp(a - shift)
        p = ew / ew.sum()
        fe = np.vstack([w, alpha - delta])
        mean = fe @ p
        cov = (fe * p) @ fe.T - np.outer(mean, mean)
        active = nu > 0 or g[1] < 0
        if active:
            try:
                step = np.linalg.solve(cov + 1e-15 * np.eye(2), g)
            except np.linalg.LinAlgError:
                break
            mu, nu = mu - step[0], nu - step[1]
            nu = max(nu, 0.0)
        else:
            if cov[0, 0] <= 0:
                break
            mu = mu - g[0] / cov[0, 0]
        if np.abs(g).max() < tol / 10:
            break
    val, g = value_grad(np.array([mu, nu]))
    return float(val), float(mu), float(nu)


def theorem3_check(alpha: float, beta: float, spectrum) -> bool:
    """True when ln(alpha) < -beta*E0 - lnZ, i.e. the ground-state
    witness detects the Gibbs state at inverse temperature beta."""
    w = np.asarray(spectrum, dtype=float)
    lnz = logsumexp(-beta * w)
    return bool(np.log(alpha) < -beta * w.min() - lnz)


# ---------------------------------------------------------------------------
# entropy-gap lower bounds

def gap_lower_bound(h, cs: ConstraintSet, beta: float, p: DualPoint) -> float:
    """ln [tr exp(-beta H) / tr exp(-beta H + sum nu_i W_i + sum X^(T_A))]
    for any feasible (nu >= 0, X PSD); no optimization involved."""
    if np.any(np.asarray(p.nus) < -1e-12):
        raise ValueError("witness multipliers must be nonnegative")
    problem = prepare_dual(h, cs)
    ln_tr = _BlockObjective(problem, 0.0).value_grad(
        _pack(DualPoint(-beta, p.nus, p.xs)))[0]
    return float(logsumexp(-beta * problem.spectrum) - ln_tr)


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
