"""Certified upper bounds on constrained maximum entropy via Lagrangian
duality, entropy gaps, detection windows, and the PPT minimum energy.

Every certificate is a point x = (nu_i, Y_A) of a generalized grand
canonical ensemble, nu_i >= 0 on the witnesses W_i and Y_A PSD on the
cuts, and a spectral function at energy E of

    m = H - sum_i nu_i W_i - sum_A Y_A^(T_A).

Every state with tr(rho H) = E that meets the constraints has
tr(rho m) <= E, so the maximal entropy under that one constraint bounds
its entropy: the Gibbs entropy (von Neumann) or the maximal impurity
(linear) of spec(m) at E, capped at its mean.  It is the Lagrangian dual

    l(mu, nu_i, X_A) = ln tr exp(mu H + sum_i nu_i W_i + sum_A X_A^(T_A))
                       - mu E

at (mu, nu, X) = (-beta, beta nu, beta Y) minimized over beta; the
linear-entropy dual has F = 1 + 1/4 tr (.)_+^2 in place of ln tr exp, and
a trace multiplier lam.  Any feasible point is therefore a valid
certificate (weak duality), so even a non-converged minimization yields a
usable upper bound.  Where E < lam_min(m) no state meets the constraints
at all: x is a Farkas certificate, the dual is unbounded below and the
solve returns -inf.  One rounding rule, `_certified_min`, turns a computed
spectrum into a certified lam_min: for that verdict, for E_min,W and for
the lower side of the PPT bracket.

With at most one witness and no cuts, the witness path searches nu >= 0 on
eigenvalues alone; otherwise spectral projected gradient (SPG) runs over
nu >= 0 and PSD Y_A.  Both return x as one packed vector: nu_i, then the
packed blocks of each Y_A.

A prepared problem is real when H and every witness block are: its
blocks, each Y_A and every eigendecomposition are then real symmetric
(float64), and the packed vector holds each entry of Y_A once; otherwise
all of them are complex Hermitian, and the vector holds the real and
imaginary parts of each entry.  Restricting a real problem to real Y_A
loses nothing: the partial transpose commutes with complex conjugation,
so the dual takes the same value at Y_A and at their conjugates, and by
convexity no more at their real parts, the midpoint.

With cuts, when H and every witness conserve total S_z on qubits, m lives
in the magnetization sectors and each Y_A in the blocks of the twisted
charge S_z^B - S_z^A (Vollbrecht & Werner, PRA 64, 062307 (2001):
twirling by the product unitaries exp(i phi S_z) keeps every cut PPT, so
the restriction loses nothing).  Y_A^(T_A) is then an index permutation,
and every eigendecomposition runs on stacks of equal-size blocks;
otherwise each is one dense block.  `prepare_dual` alone reads H: every
spectrum comes from its blocks, and `ppt_energy_min` prepares through it,
or takes a scan's prepared problem, and runs in the same layouts.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Integral, Real

import numpy as np

from .linalg import (BlockLayout, CooMatrix, HermitianOperator, LinalgError,
                     as_coo, pt_permutation, real_dtype_of,
                     stacked_eigh)
from .models import (conserves_magnetization, is_translation_invariant,
                     momentum_sector_split, popcounts, sector_split_sparse)
from .edge import witness_edge
from .thermo import (_linear_entropy_weights, beta_from_energy,
                     entropy_slope, gibbs_at, gibbs_newton,
                     linear_entropy_max)
from .witness import ConstraintSet, Witness

GAP_TOLERANCE = 1e-4       # nats; "detected" threshold, von Neumann path
GAP_TOLERANCE_LINEAR = 1e-6  # converged linear duals lie ~1e-12 above optimum
# a computed lam_min(m) is certified FARKAS_MARGIN (|lam_min| + ||m||_2)
# below its value: covers the rounding of eigh and of composing m
FARKAS_MARGIN = 1e-9
DIAGONAL_TOL = 1e-9  # `diagonal_dual`'s solver tolerance


@dataclass
class SolveInfo:
    converged: bool
    iterations: int
    grad_norm: float  # of the projected gradient; nan if not evaluated
    # spectrum passes on the witness path, objective calls in SPG
    evaluations: int = 0
    # "converged", "max_iter", "line_search", "certificate",
    # "gibbs_feasible" (the Gibbs state meets the witness: no search) or
    # "decided" (stopped at a feasible point whose value settles the
    # caller's `decides`; a valid bound, not the optimum)
    termination: str = "converged"
    backtracks: int = 0  # line-search halvings in SPG; 0 on the witness path

    @property
    def infeasible(self) -> bool:
        """The returned point is a Farkas certificate: no state meets the
        constraints at this energy, and the bound is -inf."""
        return self.termination == "certificate"

    @property
    def certificate(self) -> str:
        """"farkas" (no state meets the constraints) or "bound"."""
        return "farkas" if self.infeasible else "bound"


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
    # solves beyond the grid on both window edges: bisection steps on the
    # SPG path, verdict solves past each edge on the witness path
    bisect_steps: int
    bisect_decided: int  # of them, settled "detected" before the optimum


# ---------------------------------------------------------------------------
# the dual problem, prepared once per scan

def _dense_blocks(h, cs: ConstraintSet, fallback: str | None):
    """`_blocks_for`'s result where no split applies."""
    return ("dense", fallback, [h.entries],
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
    if not isinstance(h, HermitianOperator):
        raise TypeError(f"H must be a HermitianOperator, not "
                        f"{type(h).__name__}")
    dims = h.local_dims
    if any(d != 2 for d in dims):
        return _dense_blocks(h, cs, "not qubits")
    n = len(dims)
    ops = [h.sparse] + [as_coo(w.matrix) for w in cs.witnesses]
    if not all(conserves_magnetization(o, n) for o in ops):
        return _dense_blocks(h, cs, "does not conserve magnetization")
    mag = None
    if cs.map_slots:
        # a product unitary u^(x n) keeps every cut PPT, so the twirl over
        # exp(i phi S_z) loses nothing; momentum blocks do not survive T_A
        fallback, mag = "PPT cuts", popcounts(n)
    elif all(is_translation_invariant(o, n) for o in ops):
        try:
            fine, mult = momentum_sector_split(ops, n)
            return ("momentum", None, [bl[0] for bl in fine],
                    [[bl[1 + i] for bl in fine] for i in range(len(ops) - 1)],
                    mult, None)
        except LinalgError as exc:
            fallback = str(exc)
    else:
        fallback = "not translation invariant"
    sb = [sector_split_sparse(o, n) for o in ops]
    return ("sector", fallback, sb[0], sb[1:], [1] * (n + 1), mag)


def _cut_layouts(mag, cuts, dims, dtype):
    """(layout, x_layouts, pt) with cuts: the layout of the exponent and
    the state, the magnetization sectors; that of each X_A, the blocks of
    the twisted charge m_B - m_A = m - 2 m_A, which the partial transpose
    on A exchanges with them; and per cut the index permutations
    (to_m, to_x) of that partial transpose between the two.  One block
    each where `mag` is None; every layout holds `dtype`."""
    if mag is None:
        layout = BlockLayout([int(np.prod(dims))], dtype=dtype)
        x_layouts = [layout] * len(cuts)
    else:
        n = len(dims)
        idx = np.arange(2 ** n)
        layout = BlockLayout.of_charge(mag, dtype)
        x_layouts = [BlockLayout.of_charge(
            mag - 2 * sum((idx >> (n - 1 - i)) & 1 for i in cut.subset_mask),
            dtype) for cut in cuts]
    pt = [(pt_permutation(xl, layout, dims, cut.subset_mask),
           pt_permutation(layout, xl, dims, cut.subset_mask))
          for xl, cut in zip(x_layouts, cuts)]
    return layout, x_layouts, pt


@dataclass
class DualProblem:
    """H and a constraint set, prepared for any number of dual solves.

    The blocks kept are every symmetry block with witness support, or every
    block where there are cuts: the magnetization sectors with PPT cuts,
    the dense H where no split applies.  They live only in `layout` (see
    `BlockLayout`), packed once: `h_packed` is H and `w_packed` each
    witness (None where it vanishes) in it.  `mult` says how many blocks of
    the split each stands for (2 for a conjugate momentum pair), and
    `order` = `layout.block_order(mult)` gathers the layout's eigenvalues
    into block order, each block as often as it counts.  Each X_A lives in
    the blocks of `x_layouts[A]`; `pt[A]` = (to_m, to_x) are the index
    permutations of its partial transpose into `layout` and back.  `free`
    holds the fixed spectra of the witness-free blocks and `spectrum` the
    sorted spectrum of H, each eigenvalue as often as it occurs, taken
    where it is first read.  `path` is
    the split taken ("momentum", "sector" or "dense"; "diagonal" in
    `diagonal_dual`) and `fallback` why no finer one was, or None.
    `envelope` is the witness path, set when there is at most one witness
    and no cut.  Every layout holds float64 where H and all witness blocks
    are real, else complex128.  `beta_at(e)` keeps its last result."""
    mult: list
    order: np.ndarray
    free: np.ndarray
    layout: BlockLayout
    h_packed: np.ndarray
    w_packed: list
    x_layouts: list
    pt: list
    n_wit: int
    path: str
    fallback: str | None
    envelope: "_Envelope | None" = None
    _spectrum: np.ndarray = None
    _last_beta: tuple = (np.nan, np.nan)  # (e, beta_at(e))

    @property
    def block_sizes(self) -> list:
        return list(zip(self.layout.sizes, self.mult))

    @property
    def spectrum(self) -> np.ndarray:
        """The sorted spectrum of H: the witness path's energies, else
        the free spectra and one `eigvalsh` of every kept block.  Taken on
        first read, so `ppt_energy_min`, which never reads it, pays none."""
        if self._spectrum is None:
            ev = self.envelope.energies if self.envelope is not None else \
                np.concatenate([self.free, self.layout.eigvalsh(
                    self.h_packed)[self.order]])
            self._spectrum = np.sort(ev)
        return self._spectrum

    def beta_at(self, e: float) -> float:
        """The inverse temperature of the Gibbs state of H at energy e.  A
        scan row asks for it three times (its beta, S_Gibbs and the
        witness path's Gibbs maximizer), so the last one is kept."""
        if self._last_beta[0] != e:
            self._last_beta = (e, beta_from_energy(self.spectrum, e))
        return self._last_beta[1]


def prepare_dual(h, cs: ConstraintSet) -> DualProblem:
    """Split H and the witnesses into symmetry blocks once; pass the result
    as `problem` to every solve on the same H and constraint set."""
    return _prepared(h, cs, *_blocks_for(h, cs))


def _prepared(h, cs: ConstraintSet, path, fallback, h_blocks, w_blocks,
              mult, mag) -> DualProblem:
    """The `DualProblem` of a split as `_blocks_for` returns it."""
    n_wit = len(cs.witnesses)
    blocks, kept, free = [], [], []
    for hb, m, *wbs in zip(h_blocks, mult, *w_blocks):
        wbs = [wb if np.abs(wb).max() > 0 else None for wb in wbs]
        if not cs.map_slots and all(wb is None for wb in wbs):
            free.extend([np.linalg.eigvalsh(hb)] * m)
        else:
            blocks.append((hb, wbs))
            kept.append(m)
    free = np.concatenate([np.zeros(0)] + free)
    dtype = real_dtype_of([hb for hb, _ in blocks]
                          + [wb for _, wbs in blocks for wb in wbs
                             if wb is not None])
    if cs.map_slots:
        layout, x_layouts, pt = _cut_layouts(mag, cs.map_slots,
                                             h.local_dims, dtype)
    else:
        layout = BlockLayout([hb.shape[0] for hb, _ in blocks], dtype=dtype)
        x_layouts, pt = [], []
    w_packed = [None if all(wbs[i] is None for _, wbs in blocks) else
                layout.pack([np.zeros_like(hb) if wbs[i] is None else wbs[i]
                             for hb, wbs in blocks])
                for i in range(n_wit)]
    problem = DualProblem(kept, layout.block_order(kept), free, layout,
                          layout.pack([hb for hb, _ in blocks]), w_packed,
                          x_layouts, pt, n_wit, path, fallback)
    if n_wit <= 1 and not cs.map_slots:
        problem.envelope = _Envelope(problem)
    return problem


# ---------------------------------------------------------------------------
# the dual objective

def _certified_min(w: np.ndarray) -> float:
    """lam_min of the matrix whose computed spectrum is w, less its
    rounding margin FARKAS_MARGIN (|lam_min| + ||m||_2): a lower bound on
    every eigenvalue, which scales with the matrix."""
    lo = float(w.min())
    return lo - FARKAS_MARGIN * (abs(lo) + max(-lo, float(w.max())))


class _BlockObjective:
    """The grand canonical dual over the blocks of a problem, at energy e.

    `value_grad`, which SPG minimizes, takes x = (nu_i >= 0, PSD Y_A),
    `size` packed entries.  `_eigh` builds m = H - sum nu_i W_i - sum
    Y_A^(T_A) in the problem's `layout`, where each Y_A^(T_A) is an index
    permutation of Y_A, and diagonalizes it one stack of equal-size blocks
    at a time; a witness-free block adds its fixed spectrum, and a block
    that stands for a conjugate pair counts twice.  The value is the Gibbs
    entropy at e of spec(m) capped at its mean, the full dual at (-beta,
    beta nu, beta Y) minimized over beta; for the linear entropy, the
    maximal impurity with weights (a + b w)_+, the full dual at (lam, mu,
    nu, X) = (2a, 2b, -2b nu, -2b Y) minimized over (a, b).  By the
    envelope theorem its gradient is beta (or -2b) times tr(rho W_i) and
    rho^(T_A), rho that maximizer.

    Each evaluation records `floor`, the certified lam_min(m)
    (`_certified_min`); e below it proves that no state meets the
    constraints.  A vector of the wrong length raises ValueError."""

    def __init__(self, problem: DualProblem, e: float, linear: bool = False):
        self.problem = problem
        self.e = e
        self.linear = linear
        self.floor = -np.inf
        self.beta = 0.0      # Newton's start for the next Gibbs solve
        p = problem
        self.size = p.n_wit + sum(xl.width for xl in p.x_layouts)
        self.counts = None if all(m == 1 for m in p.mult) else np.concatenate(
            [np.ones(p.free.size, int), np.bincount(p.order)])

    def _checked(self, vec):
        if np.shape(vec) != (self.size,):
            raise ValueError(f"a packed point of this problem has {self.size}"
                             f" entries, not shape {np.shape(vec)}")
        return vec

    def project(self, vec):
        """The nearest feasible point: nu >= 0 and PSD Y_A."""
        p = self.problem
        out = np.array(self._checked(vec))
        out[:p.n_wit] = np.maximum(out[:p.n_wit], 0.0)
        off = p.n_wit
        for y, xl in zip(_unpack_xs(vec, off, p.x_layouts), p.x_layouts):
            out[off:off + xl.width] = xl.psd_project(y).view(float)
            off += xl.width
        return out

    def step(self, vec, g, t: float):
        """P(vec - t g) - vec at a feasible point.  nu is stepped as
        max(-t g, -nu), so that g is not lost to rounding where
        nu >> |g|."""
        n = self.problem.n_wit
        step = self.project(vec - t * self._checked(g)) - self._checked(vec)
        step[:n] = np.maximum(-t * g[:n], -vec[:n])
        return step

    def grad_norm(self, vec, g) -> float:
        """||P(vec - g) - vec|| at a feasible point, zero exactly at a
        minimizer."""
        return float(np.linalg.norm(self.step(vec, g, 1.0)))

    def proves_infeasible(self) -> bool:
        """Whether the last point evaluated, if feasible, proves that no
        state meets the constraints at energy e."""
        return self.e < self.floor

    def _eigh(self, vec):
        """The spectrum w of m = H - sum nu_i W_i - sum Y_A^(T_A) at vec =
        (nu_i, Y_A), the witness-free blocks' first, and the eigenvector
        stacks of the rest; records its certified lam_min as `floor`."""
        p = self.problem
        m = p.h_packed.copy()
        for nu, wp in zip(self._checked(vec)[:p.n_wit], p.w_packed):
            if nu != 0.0 and wp is not None:
                m -= nu * wp
        for y, (to_m, _) in zip(_unpack_xs(vec, p.n_wit, p.x_layouts), p.pt):
            m -= y[to_m]
        w, vecs = p.layout.eigh(p.layout.hermitian(m))
        if p.free.size:
            w = np.concatenate([p.free, w])
        self.floor = _certified_min(w)
        return w, vecs

    def _traces(self, weights, vecs):
        """G = sum_i weights_i v_i v_i^+ (off the witness-free blocks),
        tr(G W_i) = Re <G, W_i> per witness and G^(T_A) per cut."""
        p = self.problem
        g = p.layout.compose(vecs, weights[p.free.size:])
        w_g = [0.0 if wp is None else float(np.vdot(g, wp).real)
               for wp in p.w_packed]
        return g, w_g, [g[to_x].view(float) for _, to_x in p.pt]

    def value_grad(self, vec):
        """The value and gradient at vec = (nu_i, Y_A)."""
        w, vecs = self._eigh(vec)
        lo = float(w.min())
        x, t = w - lo, self.e - lo  # spec(m) and e, from lam_min(m)
        c = 1 if self.counts is None else self.counts
        if self.linear:  # weights (lam + mu w)_+ / 2
            lam, mu = _linear_multipliers(
                x if self.counts is None else np.repeat(x, c), t)
            q = np.maximum(0.5 * (lam + mu * x), 0.0)
            rho = c * q
            f = 1.0 + rho @ q - lam - mu * t
            scale = -mu
        else:
            self.beta, lnz, rho = gibbs_newton(x, t, self.beta, self.counts)
            f = lnz + self.beta * t
            scale = self.beta
        _, w_g, gxs = self._traces(rho, vecs)
        return float(f), scale * np.concatenate([w_g] + gxs)


# ---------------------------------------------------------------------------
# projected minimization

def _unpack_xs(vec: np.ndarray, off: int, x_layouts) -> list:
    """The packed blocks of each X_A, in its layout's dtype, from offset
    `off` of the real vector vec: `width` entries each, the real and
    imaginary parts of each complex entry side by side."""
    xs = []
    for layout in x_layouts:
        xs.append(vec[off:off + layout.width].copy().view(layout.dtype))
        off += layout.width
    return xs


# rounding in the projections moves SPG's lower bound on the projected
# gradient norm by about eps ||x|| per block entry; far more than that,
# this multiple of 1 + ||x|| is its margin over tol
_SPG_GATE_MARGIN = 1e-10
_SPG_MEMORY = 10  # past values the nonmonotone line search compares with


def _spg(obj: _BlockObjective, x0, opts: SolverOptions, decides=None):
    """Spectral projected gradient (Barzilai-Borwein steps, nonmonotone
    Armijo line search; Birgin, Martinez & Raydan, SIAM J. Optim. 10, 1196
    (2000)) for a dual objective over its feasible set.

    It stops where the projected gradient norm ||P(x - g) - x|| is at most
    `opts.tol`.  Each iteration first takes its step d = P(x - alpha g) - x;
    ||d|| min(1, 1/alpha) is a lower bound on that norm (Calamai & More,
    Math. Program. 39, 93 (1987), Lemma 2.2: ||P(x - t g) - x|| does not
    decrease in t, and its ratio to t does not increase), and the exact
    norm, one more projection, is taken only where the bound is at most
    tol + _SPG_GATE_MARGIN (1 + ||x||).  So the bound never skips a stop
    beyond rounding, and every returned point reports its exact norm.
    `SolveInfo.backtracks` counts the line search's halvings.

    Every trial point is a convex combination of feasible points; the
    solve stops at the first one that `obj.proves_infeasible()` after its
    `value_grad`, and returns it with the value -inf.  Given `decides`, it
    also stops at the start point or the first trial point whose value
    makes `decides(value)` true, and returns it as "decided"."""
    project, grad_norm, step = obj.project, obj.grad_norm, obj.step
    tol, max_iter = opts.tol, opts.max_iter
    calls = backtracks = 0

    def fun_grad(vec):
        nonlocal calls
        calls += 1
        return obj.value_grad(vec)

    def early(xv, fv, gv, it):
        # a Farkas certificate takes precedence over a decided value; as
        # on the witness path, it reports no gradient
        if obj.proves_infeasible():
            return xv, -np.inf, SolveInfo(True, it, np.nan, calls,
                                          "certificate", backtracks)
        return xv, fv, SolveInfo(False, it, grad_norm(xv, gv), calls,
                                 "decided", backtracks)

    x = project(x0)
    f, g = fun_grad(x)
    if decides is not None and decides(f):
        return early(x, f, g, 0)
    hist = [f]
    alpha = 1.0 / max(np.linalg.norm(g), 1e-8)
    best_x, best_f = x.copy(), f
    it = 0
    pg_norm = None  # the exact norm at x, once taken
    termination = "max_iter"
    for it in range(1, max_iter + 1):
        d = step(x, g, alpha)
        gate = tol + _SPG_GATE_MARGIN * (1.0 + np.linalg.norm(x))
        if np.linalg.norm(d) * min(1.0, 1.0 / alpha) <= gate:
            pg_norm = grad_norm(x, g)
            if pg_norm <= tol:
                termination = "converged"
                break
        dg = float(np.dot(d, g))
        if dg > -1e-18:
            alpha = max(alpha * 0.1, 1e-12)
            d = step(x, g, alpha)
            dg = float(np.dot(d, g))
            if dg > -1e-18:
                termination = "line_search"
                break
        lam = 1.0
        fmax = max(hist[-_SPG_MEMORY:])
        while True:
            xn = x + lam * d
            fn, gn = fun_grad(xn)
            if obj.proves_infeasible() or (decides is not None
                                           and decides(fn)):
                return early(xn, fn, gn, it)
            if fn <= fmax + 1e-4 * lam * dg or lam < 1e-12:
                break
            lam *= 0.5
            backtracks += 1
        s = xn - x
        y = gn - g
        sy = float(np.dot(s, y))
        ss = float(np.dot(s, s))
        alpha = min(max(ss / sy, 1e-12), 1e8) if sy > 1e-18 else alpha * 2.0
        x, f, g, pg_norm = xn, fn, gn, None
        hist.append(f)
        if f < best_f:
            best_f, best_x = f, x.copy()
    if f > best_f:
        x, f, pg_norm = best_x, best_f, None
        _, g = fun_grad(x)
    if pg_norm is None:
        pg_norm = grad_norm(x, g)
    return x, f, SolveInfo(pg_norm <= tol * 10, it, float(pg_norm), calls,
                           termination, backtracks)


def _check_option(name: str, value, kind, ok=lambda v: True):
    """Raise ValueError unless value is a number of `kind`, not a bool,
    and ok(value)."""
    if isinstance(value, bool) or not isinstance(value, kind) or \
            not ok(value):
        raise ValueError(f"{name} = {value!r} is not a valid {kind.__name__}")


@dataclass
class SolverOptions:
    """Stopping rules of a dual solve; a value of the wrong type or out of
    range raises ValueError."""
    tol: float = 1e-7
    max_iter: int = 2000

    def __post_init__(self):
        _check_option("tol", self.tol, Real, lambda v: v > 0)
        _check_option("max_iter", self.max_iter, Integral, lambda v: v >= 1)


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
    _, a, b = _linear_entropy_weights(w, float(np.clip(e, w.min(),
                                                        w.mean())))
    return 2.0 * a, 2.0 * b


class _Envelope:
    """The dual with at most one witness W and no cuts, as a one-parameter
    family of Gibbs spectra (the generalized grand canonical ensemble).

    The point is nu = s >= 0 and m = H - sW, and its bound, the Gibbs
    entropy (or maximal impurity) of spec(H - sW) at E capped at its mean,
    is quasiconvex in s, so a bracketed 1-D search over eigenvalues alone
    reaches the dual optimum.  Where E < lam_min(H - sW) no state is left
    and s is a Farkas certificate; the largest such E, E_min,W = max_s
    lam_min(H - sW), is a concave maximization solved once.
    Spectra are cached by s: a cached s bounds every energy.
    `stacks` holds views of the packed H and W, and the block ids, per
    stack of the problem's layout; spectra are gathered by its `order`.
    """

    def __init__(self, problem: DualProblem):
        p, layout = problem, problem.layout
        self.problem = p
        self.spectra = {}
        self.bounds = {}          # bound at (s, e), kept through one solve
        self.passes = 0
        self.s_last = None        # the last interior optimum
        self.move = np.inf        # how far the last search moved from there
        self._edge = None         # (lam_min(H - s_W W), s_W)
        w_stacks = layout.stacks(p.w_packed[0]) if layout.groups else []
        self.stacks = [(hs, ws, ids) for hs, ws, (_, ids) in
                       zip(layout.stacks(p.h_packed), w_stacks,
                           layout.groups)]
        # spec(H) and <i|W|i> in its eigenbasis, in the order of
        # `spectrum(s)`; one stack's eigenvectors are held at a time
        ev, w_diag = [np.zeros(0)], [np.zeros(0)]
        for hs, ws, _ in self.stacks:
            e, v = stacked_eigh(hs)
            ev.append(e.ravel())
            w_diag.append((v.conj() * (ws @ v)).sum(axis=1).real.ravel())
        self.energies = np.concatenate([p.free, np.concatenate(ev)[p.order]])
        self.w_diag = np.concatenate([np.zeros(p.free.size),
                                      np.concatenate(w_diag)[p.order]])

    def spectrum(self, s: float) -> np.ndarray:
        """spec(H - sW), each eigenvalue as often as it occurs."""
        if s == 0.0:
            return self.energies
        w = self.spectra.get(s)
        if w is None:
            vals = np.concatenate([np.zeros(0)] + [
                np.linalg.eigvalsh(hs - s * ws).ravel()
                for hs, ws, _ in self.stacks])
            w = np.concatenate([self.problem.free, vals[self.problem.order]])
            if len(self.spectra) >= _SPECTRA_KEPT:
                del self.spectra[next(iter(self.spectra))]
            self.spectra[s] = w
            self.passes += 1
        return w

    def _lowest(self, s: float):
        """lam_min(H - sW) and its slope in s, -<v|W|v> for the lowest
        eigenvector v (a supergradient where v is degenerate).  The
        eigenvalues of every block pick the first block, in block order,
        that attains it; only that block's eigenvectors are computed."""
        free = self.problem.free
        best = (float(free.min()) if free.size else np.inf, 0.0)
        self.passes += 1
        low = []  # (lowest eigenvalue, block, its H - sW, its W)
        for hs, ws, ids in self.stacks:
            m = hs - s * ws
            w = np.linalg.eigvalsh(m)[:, 0]
            j = int(np.argmin(w))
            low.append((w[j], ids[j], m[j], ws[j]))
        if low:
            w0, _, m, wb = min(low, key=lambda c: c[:2])
            if w0 < best[0]:
                w, v = np.linalg.eigh(m)
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
        """Whether s proves that no state with tr(rho W) >= 0 has energy
        e: e < lam_min(H - sW), beyond rounding."""
        return e < _certified_min(self.spectrum(s))

    def e_min_w(self) -> float:
        """The certified lowest feasible energy: below it every state
        violates the witness."""
        return _certified_min(self.spectrum(self.edge()[1]))

    def bound(self, s: float, e: float, linear: bool) -> float:
        """The maximal entropy at tr(rho (H - sW)) <= e; -inf where s is a
        Farkas certificate.  Kept per (s, e) through one solve."""
        if (s, e) in self.bounds:
            return self.bounds[s, e]
        w = self.spectrum(s)
        lo = float(w.min())
        # the value of `_BlockObjective` at (s,): ln Z + beta (e - lo)
        value = -np.inf if self.certifies(e, s) else \
            entropy_slope(w - lo, e - lo, linear)[0]
        self.bounds[s, e] = value
        return value

    def _farkas(self, s: float, iterations: int, passes: int):
        """The solve's result at the certificate nu = s."""
        return -np.inf, np.array([s]), SolveInfo(
            True, iterations, np.nan, self.passes - passes, "certificate")

    def _search(self, e: float, linear: bool, opts: SolverOptions,
                decides=None):
        """Minimize bound(s) over s > 0, where it decreases at s = 0.

        From the last optimum, Newton's method on the central-difference
        slope of the bound, then the secant method on that slope; a step
        that leaves the bracket of s* which the slopes' signs give doubles
        s or bisects the bracket instead.  A closing step that lands above
        the least bound evaluated has overshot: where that least bound lies
        outside the last stencil, the search stopped on a flat stretch (the
        bound is ln d where spec(H - sW) has its mean below E), so it
        bisects the bracket and goes on; else it returns that least bound.
        Returns (s, bound(s), evaluations, whether the iteration cap
        stopped it); where a Farkas certificate turned up, s is that point.
        Raises `_Decided` at the first bound that makes `decides` true."""
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
                s = min(seen, key=seen.get)
                return s, seen[s], len(seen), False
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
            c_new = c + step
            if abs(step) <= (h if h <= floor else _S_XTOL * c):
                s = c_new
                if f(s) > min(seen.values()):  # the step overshot
                    s = min(seen, key=seen.get)
                    c_new = np.nan  # bisect, unless s is this stencil's
                if abs(s - c) <= h:
                    self.move = abs(s - start)
                    return s, seen[s], len(seen), False
            if not lo < c_new < hi:
                c_new = 2.0 * c if hi == np.inf else 0.5 * (lo + hi)
            prev = c, d
            h, floor = span(c_new, 0.1 * abs(c_new - c))
            c = c_new
        s = min(seen, key=seen.get)
        return s, seen[s], len(seen), True

    def solve(self, e: float, opts: SolverOptions, linear: bool,
              decides=None):
        """The witness-path solve: (value, (s,), SolveInfo), nu = s the
        point.  Given `decides`, the first s the search visits whose bound
        makes it true ends the solve, as "decided" (or at a Farkas
        certificate where that bound is -inf); where none does, the solve
        returns the optimum's bound with no gradient (grad_norm nan).  A
        full solve returns bound(s), as a verdict solve does, with the
        projected gradient norm of `_BlockObjective` at (s,)."""
        p = self.problem
        passes = self.passes
        self.bounds.clear()
        if p.n_wit and self.certifies(e, self.edge()[1]):
            return self._farkas(self.edge()[1], 0, passes)
        # the entropy maximizer for H alone, in H's eigenbasis
        spec, eps = p.spectrum, self.energies
        if linear:
            lam, mu = _linear_multipliers(spec, e)
            weights = 0.5 * np.maximum(lam + mu * eps, 0.0)
            value = linear_entropy_max(spec, e)
        else:
            beta = p.beta_at(e)
            weights = np.exp(-beta * (eps - eps.min()))
            weights /= weights.sum()
            value = gibbs_at(spec, beta)[2]
        if weights @ self.w_diag >= 0.0:
            # it meets the witness: no search, and at nu = 0 the gradient,
            # a positive multiple of tr(rho W) >= 0, projects to zero
            return value, np.zeros(p.n_wit), SolveInfo(
                True, 0, 0.0, self.passes - passes, "gibbs_feasible")
        decided = False
        try:
            s, value, iterations, capped = self._search(e, linear, opts,
                                                        decides)
        except _Decided as stop:
            (s, value, iterations), decided = stop.args, True
        if value == -np.inf:  # bound(s) is -inf where s certifies
            return self._farkas(s, iterations, passes)
        vec = np.array([s])
        if decided:
            return value, vec, SolveInfo(False, iterations, np.nan,
                                         self.passes - passes, "decided")
        self.s_last = s
        if decides is not None:
            # a step that did not decide reads only the value: skip the
            # closing evaluation and its eigh of every witness block
            return value, vec, SolveInfo(
                not capped, iterations, np.nan, self.passes - passes,
                "max_iter" if capped else "converged")
        obj = _BlockObjective(p, e, linear)
        pg_norm = obj.grad_norm(vec, obj.value_grad(vec)[1])
        converged = pg_norm <= 10 * opts.tol
        termination = ("max_iter" if capped else
                       "converged" if converged else "line_search")
        return float(value), vec, SolveInfo(converged, iterations, pg_norm,
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
    x, f, info = _spg(obj, np.zeros(obj.size) if init is None else init,
                      opts, decides=decides)
    return f, x, info


def minimize_dual(h, cs: ConstraintSet, e: float, opts: SolverOptions = None,
                  init: np.ndarray = None, problem: DualProblem = None,
                  decides=None):
    """Minimize the von Neumann dual; returns (s_upper, x, info), x the
    packed point (nu_i, Y_A) whose bound s_upper is.

    With at most one witness and no cuts the witness path solves it (see
    `_Envelope`); it searches from its own last optimum, and `init` is not
    used there.  Otherwise SPG minimizes over (nu, Y) (see
    `_BlockObjective`), from `init`, an x of an earlier solve of the same
    problem, or from nu = Y = 0, where the value is S_Gibbs(E); an `init`
    of another length raises ValueError.  `problem` is `prepare_dual(h,
    cs)`, to prepare once for many solves.  Where no state meets the
    constraints at energy e, the solve returns -inf at a Farkas
    certificate x, lam_min(m) > e, with `info.infeasible` set.

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

    The dual is 1/4 tr(lam*I + mu*H + sum nu_i W_i + X0 + sum X_A^(T_A))^2
    + 1 - lam - mu*E over lam, mu real, nu >= 0, X0 and X_A PSD; the slack
    X0 = (.)_- is eliminated in closed form, leaving the positive part.
    SPG minimizes it over the grand canonical point (nu, Y): the maximal
    impurity at E of the spectrum of m = H - sum nu_i W_i - sum
    Y_A^(T_A), whose weights (a + b w)_+ give the full point (lam, mu, nu,
    X) = (2a, 2b, -2b nu, -2b Y).  Returns (value, x, info), x = (nu_i,
    Y_A); `init`, `problem` and the witness path are as in
    `minimize_dual`.  The value is -inf at a Farkas certificate x,
    lam_min(m) > e, and `decides` stops the solve early, as in
    `minimize_dual`."""
    return _minimize(h, cs, e, opts, init, problem, True, decides)


# ---------------------------------------------------------------------------
# energy scans

class GridError(ValueError):
    """A scan grid end that is not finite or lies outside [E0, mean]."""


@dataclass
class GridOptions:
    """A scan's energy grid and edge search (`bisect_iters`: see
    `gap_energy_scan`); a value of the wrong type or out of range, or an
    entropy other than "von-neumann" or "linear", raises ValueError."""
    n_points: int = 40
    e_lo: float | None = None
    e_hi: float | None = None
    bisect_iters: int = 40
    gap_tolerance: float | None = None  # default depends on the entropy kind
    entropy: str = "von-neumann"  # or "linear"

    def __post_init__(self):
        _check_option("n_points", self.n_points, Integral, lambda v: v >= 1)
        _check_option("bisect_iters", self.bisect_iters, Integral,
                      lambda v: v >= 0)
        for name in ("e_lo", "e_hi", "gap_tolerance"):
            if getattr(self, name) is not None:
                _check_option(name, getattr(self, name), Real)
        if self.entropy not in ("von-neumann", "linear"):
            raise ValueError(f"entropy must be 'von-neumann' or 'linear', "
                             f"not {self.entropy!r}")

    def resolved_gap_tolerance(self) -> float:
        if self.gap_tolerance is not None:
            return self.gap_tolerance
        return (GAP_TOLERANCE_LINEAR if self.entropy == "linear"
                else GAP_TOLERANCE)


def gap_energy_scan(h, cs: ConstraintSet, grid: GridOptions = None,
                    opts: SolverOptions = None,
                    problem: DualProblem = None) -> GapScanResult:
    """Scan the energy axis, record the entropy gap per point, and locate
    the detection window edges, where s_ref - S_dual crosses gap_tolerance.
    The problem is prepared once, or given as `problem` = `prepare_dual(h,
    cs)`, and shared by every solve of the scan.  On the witness path
    E_min,W is certified first, and an energy below it is infeasible
    without a solve.

    Every grid row is a full solve, since its S_dual is reported.  Between
    the last detected row and the next one, an edge is located by solves
    that read only whether s_ref - S_dual > gap_tolerance, so each stops at
    the first feasible point whose value passes that test (termination
    "decided": by weak duality the point certifies detection); one that
    does not detect still runs the full solve.  On the SPG path these are
    bisection steps, at most `grid.bisect_iters` per edge, and the edge is
    the final bracket's midpoint.  On the witness path each spectrum of H -
    sW certifies a whole interval of energies, so the edge is one
    maximization over s (`edge.witness_edge`), which computes at most
    `grid.bisect_iters` spectra before its verdict solve, and the edge is a
    certified detected energy.  With `bisect_iters` 0 both report the
    midpoint of the two rows.  The result counts the verdict solves and the
    decided ones.  A grid end outside [E0, mean], or not finite, raises
    `GridError` before any solve."""
    grid = grid or GridOptions()
    opts = opts or SolverOptions()
    problem = problem or prepare_dual(h, cs)
    spectrum = problem.spectrum
    env = problem.envelope
    e_min_w = env.e_min_w() if env is not None and problem.n_wit else None
    e0 = float(spectrum.min())
    e_top = float(spectrum.max())
    e_inf = float(spectrum.mean())
    spread = e_inf - e0
    lo = grid.e_lo if grid.e_lo is not None else e0 + 1e-6 * spread
    hi = grid.e_hi if grid.e_hi is not None else e_inf
    for end in (lo, hi):  # the slack of `beta_from_energy`, which NaN fails
        if not e0 - 1e-12 * spread < end <= e_inf + 1e-12 * spread:
            raise GridError(f"grid end {end} outside [{e0}, {e_inf}]")
    linear = grid.entropy == "linear"
    gap_tol = grid.resolved_gap_tolerance()

    solve = lin_dual_minimize if linear else minimize_dual
    init = None  # each solve warm-starts from the last one's point

    def s_ref_at(e):
        return (linear_entropy_max(spectrum, e) if linear else
                gibbs_at(spectrum, problem.beta_at(e))[2])

    def gap_at(e, verdict=False):
        # (s_ref, s_dual, info, the point whose bound s_dual is)
        nonlocal init
        s_ref = s_ref_at(e)
        if e_min_w is not None and e < e_min_w:
            return s_ref, -np.inf, SolveInfo(True, 0, np.nan, 0,
                                             "certificate"), \
                np.array([env.edge()[1]])
        # the very test that flags a row detected, so no verdict disagrees
        decides = (lambda value: s_ref - value > gap_tol) if verdict else None
        s_dual, init, info = solve(h, cs, e, opts, init, problem,
                                   decides=decides)
        return s_ref, s_dual, info, init

    rows, points = [], []
    for e in np.linspace(lo, hi, grid.n_points):
        beta = problem.beta_at(e)
        s_ref, s_dual, info, x = gap_at(e)
        delta = s_ref - s_dual
        rows.append(ScanRow(float(e), float(beta), s_ref, s_dual, delta,
                            delta > gap_tol, info.converged,
                            info.infeasible))
        points.append(x)

    detected = [r.detected for r in rows]
    e_min_gap = e_max_gap = None
    steps = decided = 0

    def verdict(e):
        # one solve beyond the grid: (whether it detects, its point)
        nonlocal steps, decided
        s_ref, s_dual, info, x = gap_at(e, verdict=True)
        steps += 1
        decided += info.termination == "decided"
        return s_ref - s_dual > gap_tol, x

    def bisect(e_out, e_in):
        # gap(e_in) > tol, gap(e_out) <= tol
        for _ in range(grid.bisect_iters):
            mid = 0.5 * (e_out + e_in)
            if verdict(mid)[0]:
                e_in = mid
            else:
                e_out = mid
            if abs(e_in - e_out) < 1e-10 * max(abs(spread), 1.0):
                break
        return 0.5 * (e_out + e_in)

    def edge(i_out, i_in):
        e_out, e_in = rows[i_out].e, rows[i_in].e
        if env is None or not grid.bisect_iters:
            return bisect(e_out, e_in)
        return witness_edge(env, s_ref_at, linear, gap_tol, e_in, e_out,
                            float(points[i_in][0]), grid.bisect_iters,
                            verdict)

    if any(detected):
        first = detected.index(True)
        last = len(detected) - 1 - detected[::-1].index(True)
        e_min_gap = rows[first].e if first == 0 else edge(first - 1, first)
        e_max_gap = rows[last].e if last == len(rows) - 1 else \
            edge(last + 1, last)
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
PPT_PRIMAL_TOL = 1e-9    # a primal residual below it brings the next check
PPT_PENALTY = 3.0        # the ADMM penalty sigma per unit of ||H_c||_F


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
    dF to f_k = g_k - x_k.  The iterates are packed real symmetric or
    Hermitian matrices, of the dtype of `x`, and gamma is real: the Gram
    matrix is m x m, the real parts of the inner products, taken as dot
    products of the real views (the vectors themselves where they are
    real).  The differences sit in a ring buffer, so a step copies no
    history."""

    def __init__(self, x: np.ndarray):
        self.dtype = x.dtype
        self.df = np.empty((ANDERSON_MEMORY - 1, x.view(float).size))
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
            return g.view(self.dtype)
        df, dg = self.df[:k], self.dg[:k]
        gram = df @ df.T
        reg = ANDERSON_REG * max(np.trace(gram), np.finfo(float).tiny)
        gamma = np.linalg.solve(gram + reg * np.eye(k), df @ f)
        return (g - gamma @ dg).view(self.dtype)


def ppt_energy_min(h, cuts, cert_tol: float = 1e-5,
                   max_iter: int = 20000,
                   problem: DualProblem = None) -> PPTResult:
    """min tr(rho H) over states PSD under partial transposition on every
    cut, by consensus ADMM (alternating projections onto the density and
    PT-PSD sets) with safeguarded Anderson acceleration, bracketed to
    within cert_tol.  `problem` is `prepare_dual(h, ConstraintSet(
    map_slots=cuts))`, to share one with a scan; one with a witness, or
    with another number of cuts, raises ValueError.

    One ADMM sweep is a map T on the packed state x = (z, u): z holds z0
    and every z_A, u their scaled duals u0 and u_A.  Each step extrapolates
    it (`_Anderson`).  An extrapolated x whose residual |T(x) - x| exceeds
    the last accepted point's is rejected, and the plain sweep from that
    point is taken with the memory cleared (Zhang, O'Donoghue & Boyd, SIAM
    J. Optim. 30 (2020)).  `iterations` counts every sweep, `rejected` the
    extrapolations thrown away.

    The sweeps run on the traceless part H_c = H - (tr H / d) I, with the
    penalty sigma = PPT_PENALTY ||H_c||_F (1 where H_c = 0).  On states
    tr(rho H) = tr(rho H_c) + tr H / d, so the problem is the same, and
    the sweep reads H only as H_c / sigma: aH + cI (a > 0) takes the same
    iterates, the same sweeps and u_A, and brackets a value + c; a penalty
    read off the entries of H would move with its energy zero and units.

    Every PPT_CHECK_EVERY sweeps, the image T(x) gives both sides of a
    bracket, whatever the extrapolation did:
    - `value` = lam_min(H - sum_A Y_A^(T_A)), Y_A = P_PSD(-sigma u_A), less
      a rounding margin: for any PSD Y_A and PPT rho, tr(rho H) >= lam_min,
      a certified lower bound.  lam_min is tr H / d plus the least
      eigenvalue of M_c = H_c - sum_A Y_A^(T_A), certified as E_min,W is
      (`_certified_min`) on the spectrum of M_c, so a shift of H does not
      widen the margin and a scale of H scales it;
    - `rho` = (1 - t) z0 + t I / d, z0 a state by construction and t the
      least weight that makes every partial transpose PSD; `primal_value`
      = tr(rho H), attained by a PPT state, plus the rounding bound of
      that n-term sum, n eps sum_i |rho_i H_i| (Higham, Accuracy and
      Stability of Numerical Algorithms, 2nd ed., sec. 3.1).
    `residual` = primal_value - value bounds the distance of both to the
    optimum.  The solve stops once tr(rho H) - lam_min <= cert_tol, so
    `residual` exceeds cert_tol by at most the two margins.

    rho and its copy z0 live in the magnetization sectors, and each copy
    z_A of rho^(T_A) in the blocks of the cut's twisted charge (see
    `_cut_layouts`); from the start I / d every iterate stays in them.
    Where H does not conserve magnetization, or the sites are not qubits,
    each is one dense block.  For a real H every iterate is real.  A sweep
    moves z and u into one joint layout of all those blocks
    (`BlockLayout.joined`) and back, so it diagonalizes each block size
    once, in one `eigh` over z0's blocks and every cut's."""
    cuts = tuple(cuts)
    if not cuts:
        raise ValueError("need at least one cut")
    prob = problem or prepare_dual(h, ConstraintSet(map_slots=cuts))
    if prob.n_wit or len(prob.pt) != len(cuts):
        raise ValueError("the problem must be prepared with these cuts "
                         "and no witness")
    lay, pt = prob.layout, prob.pt
    hp = prob.h_packed
    d = lay.dim
    h_mean = float(hp[lay.diagonal].real.sum()) / d
    hc = hp.copy()  # the traceless part H_c = H - (tr H / d) I
    hc[lay.diagonal] -= h_mean
    sigma = PPT_PENALTY * float(np.linalg.norm(hc)) or 1.0
    n_c = len(cuts)
    joint, perm = BlockLayout.joined([lay] + prob.x_layouts)
    size = joint.size
    sizes = [lay.size] + [xl.size for xl in prob.x_layouts]
    # x keeps z0, then each z_A (u likewise), and each sweep permutes it
    # into the joint layout and back: the extrapolation's Gram matrix
    # amplifies the rounding of its sums, and in the joint order the n=5
    # all-cuts solve ends 6e-6 away, after 278 sweeps in place of 248
    at = np.empty(size, dtype=int)  # x's order -> joint position
    at[perm] = np.arange(size)
    starts = np.cumsum(sizes) - sizes
    # z[gather] stacks z0 and every z_A^(T_A), each in z0's layout;
    # rho[scatter] is rho, then every rho^(T_A), in z's order
    gather = np.stack([np.arange(lay.size)]
                      + [s + to_m for s, (to_m, _) in zip(starts[1:], pt)])
    scatter = np.concatenate([np.arange(lay.size)]
                             + [to_x for _, to_x in pt])
    part = np.repeat(np.arange(n_c + 1), sizes)  # 0 for z0, A + 1 for z_A
    on_cuts = np.flatnonzero(part[perm])  # the z_A in the joint layout
    cut_adjoint = joint.adjoint[on_cuts]
    # the positions of z0's eigenvalues among `joint.eigh`'s
    n0 = len(lay.sizes)
    state_ev = joint.block_order([1] * n0 + [0] * (len(joint.sizes) - n0))
    cut_ev = np.ones(joint.dim, dtype=bool)
    cut_ev[state_ev] = False

    def sweep(x):
        z, u = x[:size], x[size:]
        acc = (z - u)[gather]
        acc[0] -= hc / sigma
        rho = acc.sum(axis=0) / (1.0 + n_c)
        v = rho[scatter]
        w, vecs = joint.eigh(joint.hermitian((v + u)[perm]))
        weights = np.maximum(w, 0.0)
        weights[state_ev] = _simplex_project(w[state_ev])
        z_new = joint.compose(vecs, weights)
        # each z_A is the Hermitian part, as `psd_project` returns it
        z_new[on_cuts] = (z_new[on_cuts] + z_new[cut_adjoint].conj()) / 2
        z_new = z_new[at]
        r = v - z_new
        r_prim = np.sqrt(np.bincount(part, (r * r.conj()).real).max())
        return np.concatenate([z_new, u + v - z_new]), r_prim

    def bracket(g):
        z0, u = g[:lay.size], g[size:]
        pt_w = joint.eigvalsh(z0[scatter][perm])[cut_ev]
        viol = max(0.0, float(-pt_w.min()))
        t = d * viol / (1.0 + d * viol)
        primal = (1.0 - t) * float(np.vdot(z0, hp).real) + t * h_mean
        # a bound on the rounding of that sum: eps = 2u per term covers
        # the dot product of lay.size terms and the three operations after
        upper = primal + (lay.size + 3) * np.finfo(float).eps * (
            (1.0 - t) * float(np.vdot(np.abs(z0), np.abs(hp)))
            + t * abs(h_mean))
        y = joint.psd_project((-sigma * u)[perm])[at]
        m = hc - y[gather[1:]].sum(axis=0)
        w = lay.eigvalsh(lay.hermitian(m))
        lo = float(w.min())
        # lam_min(H - sum Y^T) = lo + tr H / d; value lies below it by the
        # certified margin of lam_min(M_c) and by the rounding of the sum
        lam = lo + h_mean
        lower = (_certified_min(w) + h_mean
                 - 2.0 * np.spacing(abs(lo) + abs(h_mean)))
        rho = (1.0 - t) * z0
        rho[lay.diagonal] += t / d
        return PPTResult(lower, upper, upper - lower,
                         primal - lam <= cert_tol, lay.dense(rho))

    z0 = np.zeros(lay.size, dtype=lay.dtype)
    z0[lay.diagonal] = 1.0 / d
    x = np.concatenate([z0[scatter], np.zeros(size, dtype=lay.dtype)])
    g, r_prim = sweep(x)
    f_norm = np.linalg.norm(g - x)
    mix = _Anderson(x)
    mix.push(x, g)
    best, it, rejected, check_at = None, 1, 0, PPT_CHECK_EVERY
    while True:
        if it >= check_at or r_prim < PPT_PRIMAL_TOL or it >= max_iter:
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

def diagonal_dual(spectrum, alpha: float, ground_count: int, e: float):
    """Minimize ln sum_i exp(mu E_i + nu (alpha - delta_i)) - mu E over
    mu real, nu >= 0, where delta_i = 1 on the first `ground_count`
    entries of the ascending spectrum.  Returns (s_upper, nu*); mu* is
    -beta of the Gibbs state of E_i - nu* (alpha - delta_i) at e.

    This is the witness path on H = diag(E_i) with the witness
    W = diag(alpha - delta_i), split into 1 x 1 blocks; s_upper is -inf,
    at the Farkas certificate nu, where no state at energy e has ground
    weight <= alpha."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    w = np.sort(np.asarray(spectrum, dtype=float))
    delta = np.zeros(w.size)
    delta[:ground_count] = 1.0
    i = np.arange(w.size)
    cs = ConstraintSet((Witness(CooMatrix(i, i, alpha - delta,
                                          (w.size, w.size))),))
    # H and W are diagonal: each eigenvalue is a 1 x 1 block
    problem = _prepared(None, cs, "diagonal", None, list(w.reshape(-1, 1, 1)),
                        [list((alpha - delta).reshape(-1, 1, 1))],
                        [1] * w.size, None)
    val, (nu,), _ = minimize_dual(None, cs, e,
                                  SolverOptions(tol=DIAGONAL_TOL),
                                  problem=problem)
    return float(val), float(nu)


# ---------------------------------------------------------------------------
# entropy-gap lower bounds

def gap_lower_bound(h, cs: ConstraintSet, beta: float, x: np.ndarray) -> float:
    """ln Z_H(beta) - ln tr exp(-beta m), m = H - sum nu_i W_i - sum
    Y_A^(T_A), for any feasible packed point x = (nu_i >= 0, PSD Y_A in the
    blocks of `prepare_dual(h, cs).x_layouts`): S_Gibbs(E) less the dual at
    (-beta, beta nu, beta Y), a lower bound on the entropy gap at the
    energy E of beta; no optimization involved."""
    x = np.asarray(x, dtype=float)
    if np.any(x[:len(cs.witnesses)] < -1e-12):
        raise ValueError("witness multipliers must be nonnegative")
    problem = prepare_dual(h, cs)
    obj = _BlockObjective(problem, 0.0)
    w = obj._eigh(x)[0]
    if obj.counts is not None:
        w = np.repeat(w, obj.counts)
    return float(gibbs_at(problem.spectrum, beta)[0] - gibbs_at(w, beta)[0])


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
