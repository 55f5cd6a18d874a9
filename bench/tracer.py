"""Spans around proxygap's functions, recorded from outside the program.

A `Tracer` replaces a function at the name it is bound to (``dual.minimize``
is scipy's ``minimize`` as ``dual`` imported it) with a wrapper that records
a span: name, start, end, parent span and a few attributes.  Spans stay in
memory until the pass ends.  `restore` puts every original binding back.
Targets missing from the program are skipped, so the benchmark keeps running
when a refactor removes or renames one; its layer then reads zero.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.monotonic):
        self.spans = []  # dicts: id, name, parent, start, end, attributes
        self._stack = []
        self._saved = []  # (owner, attr, original)
        self._clock = clock

    def wrap(self, owner, attr: str, name: str, on_result=None) -> bool:
        """Trace calls through `owner.attr` as spans called `name`;
        `on_result(args, kwargs, result)` returns attributes for the span."""
        original = getattr(owner, attr, None)
        if not callable(original):
            return False
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = {"id": len(spans), "name": name,
                    "parent": stack[-1] if stack else None,
                    "start": clock(), "end": None}
            spans.append(span)
            stack.append(span["id"])
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = clock()
                stack.pop()
            if on_result is not None:
                span.update(on_result(args, kwargs, result))
            return result

        setattr(owner, attr, traced)
        self._saved.append((owner, attr, original))
        return True

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def _eigh_attrs(args, kwargs, result):
    shape = getattr(args[0] if args else kwargs.get("a"), "shape", ())
    d = shape[-1] if shape else 0
    batch = 1
    for k in shape[:-2]:
        batch *= k
    return {"dim3": batch * d ** 3}


def _solve_attrs(args, kwargs, result):
    # minimize_dual / lin_dual_minimize(h, cs, e, ...) -> (value, point, info)
    e = args[2] if len(args) > 2 else kwargs.get("e")
    info = result[2] if isinstance(result, tuple) and len(result) > 2 else None
    return {"e": e, "iterations": int(getattr(info, "iterations", 0)),
            "converged": bool(getattr(info, "converged", True))}


def _nfev_attrs(args, kwargs, result):
    return {"nfev": int(getattr(result, "nfev", 0))}


def targets(np, dual, limit, models, witness):
    """(owner, attribute, span name, attribute hook) for every traced
    binding.  Layer prefixes are proxygap's modules; ``kernel`` is the
    numpy/LAPACK calls beneath all of them."""
    block = getattr(dual, "_BlockObjective", None)
    return [
        (models, "heisenberg_chain", "models.build", None),
        (witness, "dicke_witness", "witness", None),
        (witness, "even_odd_bipartition", "witness", None),
        (witness, "all_bipartitions", "witness", None),
        (dual, "sector_split_sparse", "models.split", None),
        (dual, "momentum_sector_split", "models.split", None),
        (dual, "is_translation_invariant", "models.split", None),
        (dual, "beta_from_energy", "thermo", None),
        (dual, "gibbs_at", "thermo", None),
        (dual, "linear_entropy_max", "thermo", None),
        (dual, "partial_transpose_matrix", "linalg.pt", None),
        (dual, "psd_project_matrix", "linalg.psd", None),
        (dual, "gap_energy_scan", "dual.scan", None),
        (dual, "ppt_energy_min", "dual.emin", None),
        (dual, "minimize_dual", "dual.solve", _solve_attrs),
        (dual, "lin_dual_minimize", "dual.solve", _solve_attrs),
        (dual, "wcee_value_grad", "dual.objective", None),
        (dual, "_lin_value_grad", "dual.objective", None),
        (block, "value_grad", "dual.objective", None),
        (dual, "minimize", "dual.lbfgs", _nfev_attrs),
        (limit, "theorem3_region", "limit.region", None),
        (limit, "wei_alpha_density", "limit.alpha", None),
        (limit, "xy_lnz_density", "limit.lnz", None),
        (limit, "quad", "limit.quad", None),
        (np, "einsum", "kernel.einsum", None),
        (np.linalg, "eigh", "kernel.eigh", _eigh_attrs),
        (np.linalg, "eigvalsh", "kernel.eigvalsh", None),
    ]


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> dict:
    """Span id -> its duration minus the time its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"]) - _covered(children[s["id"]])
            for s in spans}


def _has_ancestor(span, by_id, name) -> bool:
    parent = span["parent"]
    while parent is not None:
        if by_id[parent]["name"] == name:
            return True
        parent = by_id[parent]["parent"]
    return False


def busy_time(spans, name) -> float:
    """Wall time inside spans called `name`, counting a span nested in
    another of the same name once."""
    by_id = {s["id"]: s for s in spans}
    return sum(s["end"] - s["start"] for s in spans
               if s["name"] == name and not _has_ancestor(s, by_id, name))


def layer_metrics(spans, wall_s: float, e_min, grid_rows: int,
                  infeasible_rows: int, build_rss_mb: float) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit).

    Times are shares of the pass's wall time in percent, inclusive of the
    spans beneath (``dual.solve_self_pct`` is self time).  `e_min` is the
    certified PPT minimum energy that marks infeasible solves (None: none
    is), `grid_rows` the number of scan rows and `infeasible_rows` how many
    of them lie below `e_min`."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)

    def calls(name):
        return len(by_name[name])

    def pct(name):
        return 100.0 * busy_time(spans, name) / wall_s

    # a call that raised has no attributes from its result
    solves = by_name["dual.solve"]
    iters = sum(s.get("iterations", 0) for s in solves)
    infeasible_iters = sum(s.get("iterations", 0) for s in solves
                           if e_min is not None and s.get("e") is not None
                           and s["e"] < e_min)
    scan_solves = sum(1 for s in solves
                      if _has_ancestor(s, by_id, "dual.scan"))
    return {
        "models.build_calls": (calls("models.build"), "count"),
        "models.build_pct": (pct("models.build"), "%"),
        "models.rss_mb": (build_rss_mb, "MB"),
        "models.split_calls": (calls("models.split"), "count"),
        "models.split_pct": (pct("models.split"), "%"),
        "witness.calls": (calls("witness"), "count"),
        "witness.pct": (pct("witness"), "%"),
        "thermo.calls": (calls("thermo"), "count"),
        "thermo.pct": (pct("thermo"), "%"),
        "linalg.pt_calls": (calls("linalg.pt"), "count"),
        "linalg.pt_pct": (pct("linalg.pt"), "%"),
        "linalg.psd_calls": (calls("linalg.psd"), "count"),
        "linalg.psd_pct": (pct("linalg.psd"), "%"),
        "dual.solves": (len(solves), "count"),
        "dual.bisect_solves": (max(scan_solves - grid_rows, 0), "count"),
        "dual.iters": (iters, "count"),
        "dual.unconverged": (sum(not s.get("converged", False)
                                 for s in solves), "count"),
        "dual.infeasible_rows": (infeasible_rows, "count"),
        "dual.infeasible_iter_frac": (
            infeasible_iters / iters if iters else 0.0, "ratio"),
        "dual.objective_calls": (calls("dual.objective"), "count"),
        "dual.objective_pct": (pct("dual.objective"), "%"),
        "dual.lbfgs_evals": (sum(s.get("nfev", 0)
                                 for s in by_name["dual.lbfgs"]), "count"),
        "dual.solve_self_pct": (
            100.0 * sum(selfs[s["id"]] for s in solves) / wall_s, "%"),
        "dual.emin_calls": (calls("dual.emin"), "count"),
        "dual.emin_psd_calls": (
            sum(1 for s in by_name["linalg.psd"]
                if _has_ancestor(s, by_id, "dual.emin")), "count"),
        "kernel.einsum_calls": (calls("kernel.einsum"), "count"),
        "kernel.einsum_pct": (pct("kernel.einsum"), "%"),
        "kernel.eigh_calls": (calls("kernel.eigh"), "count"),
        "kernel.eigh_pct": (pct("kernel.eigh"), "%"),
        "kernel.eigh_dim3": (sum(s.get("dim3", 0)
                                 for s in by_name["kernel.eigh"]), "count"),
        "kernel.eigvalsh_calls": (calls("kernel.eigvalsh"), "count"),
        "kernel.eigvalsh_pct": (pct("kernel.eigvalsh"), "%"),
        "limit.alpha_calls": (calls("limit.alpha"), "count"),
        "limit.alpha_pct": (pct("limit.alpha"), "%"),
        "limit.lnz_calls": (calls("limit.lnz"), "count"),
        "limit.lnz_pct": (pct("limit.lnz"), "%"),
        "limit.quad_calls": (calls("limit.quad"), "count"),
        "trace.spans": (len(spans), "count"),
    }
