"""Command-line driver: build models, run scans, emit CSV/JSON results.

Exit codes: 0 ok, 2 config error, 3 solver non-convergence (results are
still written, flagged), 4 invariant violation.  A gap-scan row below the
lowest feasible energy is not a failure: its solve ends at a certificate of
infeasibility (with one witness and no cuts, a row below the certified
E_min,W is not solved at all), and the row writes S_dual = -inf and
delta_S = inf.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import dual, limit, models, oracle, thermo, witness

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOCONV = 3
EXIT_INVARIANT = 4


class ConfigError(ValueError):
    pass


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _jsonable(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _load_config(path: str) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")


def _build_model(cfg: dict):
    try:
        spec = dict(cfg["model"])
        kind = spec.pop("type")
        if kind == "heisenberg":
            return models.heisenberg_chain(models.HeisenbergParams(**spec))
        if kind == "xy":
            return models.xy_chain(models.XYParams(**spec))
        raise ConfigError(f"unknown model type {kind!r}")
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad model spec: {exc}")


def _build_cuts(spec, n: int):
    if spec in (None, [], ()):
        return []
    if spec == "all":
        return witness.all_bipartitions(n)
    if spec == "even-odd":
        return [witness.even_odd_bipartition(n)]
    try:
        return [witness.Bipartition(set(s), n) for s in spec]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad cuts spec: {exc}")


def _build_constraints(cfg: dict, h) -> witness.ConstraintSet:
    spec = cfg.get("constraints", {})
    n = h.n_sites
    cuts = _build_cuts(spec.get("cuts"), n)
    wits = []
    for wspec in spec.get("witnesses", []):
        wspec = dict(wspec)
        kind = wspec.pop("type", None)
        if kind == "dicke":
            wits.append(witness.dicke_witness(n, int(wspec["m"])))
        elif kind == "ground-projector":
            w0, vecs, _ = models.energy_extremes(h)
            wcuts = wspec.get("cuts", "all")
            pw = witness.projector_witness(
                vecs.T, witness.ALL if wcuts == "all" else
                _build_cuts(wcuts, n), n_sites=n)
            wits.append(pw)
        else:
            raise ConfigError(f"unknown witness type {kind!r}")
    return witness.ConstraintSet(tuple(wits), tuple(cuts))


def _solver_options(cfg: dict):
    spec = cfg.get("solver")
    if not spec:
        return None
    try:
        return dual.SolverOptions(**spec)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad solver spec: {exc}")


def _grid_options(cfg: dict, n: int) -> dual.GridOptions:
    try:
        spec = dict(cfg.get("grid", {}))
        per_site = spec.pop("per_site", False)
        if "entropy" in cfg:
            spec["entropy"] = cfg["entropy"]
        if cfg.get("gap_tolerance") is not None:
            spec["gap_tolerance"] = cfg["gap_tolerance"]
        grid = dual.GridOptions(**spec)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad grid spec: {exc}")
    if per_site:
        if grid.e_lo is not None:
            grid.e_lo = grid.e_lo * n
        if grid.e_hi is not None:
            grid.e_hi = grid.e_hi * n
    return grid


def cmd_gap_scan(args) -> int:
    cfg = _load_config(args.config)
    h = _build_model(cfg)
    grid = _grid_options(cfg, h.n_sites)
    opts = _solver_options(cfg)
    cs = _build_constraints(cfg, h)
    n = h.n_sites
    cuts = _build_cuts(cfg["ppt_emin"], n) if cfg.get("ppt_emin") else None
    t0 = time.time()
    # the PPT minimum energy shares the scan's problem where it is the same
    problem = (dual.prepare_dual(h, cs) if cuts and not cs.witnesses
               and tuple(cs.map_slots) == tuple(cuts) else None)
    try:
        res = dual.gap_energy_scan(h, cs, grid, opts, problem)
    except dual.GridError as exc:
        raise ConfigError(f"bad grid spec: {exc}")
    wall = time.time() - t0
    csv_path = os.path.join(args.out, "gap_scan.csv")
    with open(csv_path, "w") as f:
        f.write("E,E_per_site,beta,T,S_gibbs,S_dual,delta_S,detected\n")
        for r in res.rows:
            t = 1.0 / r.beta if r.beta > 0 else float("inf")
            f.write(",".join([_fmt(r.e), _fmt(r.e / n), _fmt(r.beta),
                              _fmt(t), _fmt(r.s_gibbs), _fmt(r.s_dual),
                              _fmt(r.delta_s), str(int(r.detected))]) + "\n")
    summary = {
        "e0": res.e0, "e0_per_site": res.e0 / n, "e_max": res.e_max,
        "e_min_gap": res.e_min_gap, "e_min_gap_open": res.e_min_open,
        "e_max_gap": res.e_max_gap,
        "e_max_gap_per_site":
            None if res.e_max_gap is None else res.e_max_gap / n,
        "detection_fraction": res.detection_fraction,
        "gap_tolerance": grid.resolved_gap_tolerance(),
        "rows_converged": all(r.converged for r in res.rows),
        "rows_infeasible": sum(r.infeasible for r in res.rows),
        "e_min_w": res.e_min_w,
        "e_min_w_per_site": None if res.e_min_w is None else res.e_min_w / n,
        "path": res.path, "fallback": res.fallback,
        "block_sizes": res.block_sizes,
        "bisect_steps": res.bisect_steps,
        "bisect_decided": res.bisect_decided,
        "wall_time_s": wall,
    }
    if cuts:
        ppt = dual.ppt_energy_min(h, cuts, problem=problem)
        summary["e_min_ppt"] = ppt.value
        summary["e_min_ppt_per_site"] = ppt.value / n
        summary["ppt_residual"] = ppt.residual
        summary["ppt_converged"] = ppt.converged
        summary["ppt_iterations"] = ppt.iterations
        summary["ppt_rejected"] = ppt.rejected
    with open(os.path.join(args.out, "gap_scan_summary.json"), "w") as f:
        json.dump(summary, f, indent=2, default=_jsonable)
    # internal consistency: detected iff the row's own columns say so
    tol = grid.resolved_gap_tolerance()
    for r in res.rows:
        if r.detected != (r.s_gibbs - r.s_dual > tol):
            return EXIT_INVARIANT
    if not summary["rows_converged"] or not summary.get("ppt_converged", True):
        return EXIT_NOCONV
    return EXIT_OK


def cmd_ppt_emin(args) -> int:
    cfg = _load_config(args.config)
    h = _build_model(cfg)
    cuts = _build_cuts(cfg.get("cuts", "all"), h.n_sites)
    if not cuts:
        raise ConfigError("ppt-emin requires at least one cut")
    t0 = time.time()
    res = dual.ppt_energy_min(h, cuts)
    out = {
        "e_min_ppt": res.value, "e_min_ppt_per_site": res.value / h.n_sites,
        "primal_value": res.primal_value, "residual": res.residual,
        "converged": res.converged, "iterations": res.iterations,
        "rejected": res.rejected, "wall_time_s": time.time() - t0,
    }
    with open(os.path.join(args.out, "ppt_emin.json"), "w") as f:
        json.dump(out, f, indent=2, default=_jsonable)
    print(json.dumps(out, default=_jsonable))
    return EXIT_OK if res.converged else EXIT_NOCONV


def cmd_thermo_limit(args) -> int:
    cfg = _load_config(args.config)
    try:
        r = float(cfg["r"])
        h_grid = np.asarray(cfg["h_grid"], dtype=float)
        t_grid = np.asarray(cfg["t_grid"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad thermo-limit config: {exc}")
    try:
        region = limit.theorem3_region(r, h_grid, t_grid)
    except ValueError as exc:
        raise ConfigError(f"bad thermo-limit config: {exc}")
    limit.export_region_csv(region, os.path.join(args.out,
                                                 "theorem3_region.csv"))
    with open(os.path.join(args.out, "t_max.csv"), "w") as f:
        f.write("# conjecture-conditional (product-overlap density)\n")
        f.write("h,t_max\n")
        for h, t in zip(region.h_grid, region.t_max):
            f.write(f"{_fmt(h)},{'' if np.isnan(t) else _fmt(t)}\n")
    return EXIT_OK


def cmd_bell_gap(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    try:
        beta = float(cfg.get("beta", 1.0))
        nu = float(cfg.get("nu", 5.0))
        d_list = [int(d) for d in cfg.get("d_list", [2 ** k for k in
                                                     range(5, 21)])]
        rows = [(d, dual.bell_gap_bound(beta, d, nu)) for d in d_list]
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad bell-gap config: {exc}")
    with open(os.path.join(args.out, "bell_gap.csv"), "w") as f:
        f.write("d,gap_bound\n")
        for d, v in rows:
            f.write(f"{d},{_fmt(v)}\n")
    vals = [v for _, v in rows]
    if sorted(d_list) == d_list and any(b < a - 1e-12
                                        for a, b in zip(vals, vals[1:])):
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_oracle(args) -> int:
    cfg = _load_config(args.config)
    h = _build_model(cfg)
    cs = _build_constraints(cfg, h)
    try:
        energies = [float(e) for e in cfg.get("energies") or []]
        ensemble_size = int(cfg.get("ensemble_size", 64))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad oracle config: {exc}")
    if not energies:
        raise ConfigError("oracle config needs an 'energies' list")
    if cfg.get("per_site"):
        energies = [e * h.n_sites for e in energies]
    problem = dual.prepare_dual(h, cs)

    def one(e):
        try:
            lower = oracle.max_entropy_separable_lower(
                h, e, seed=args.seed, ensemble_size=ensemble_size)
        except ValueError as exc:
            return {"E": e, "infeasible": str(exc)}
        upper, _, info = dual.minimize_dual(h, cs, e, problem=problem)
        return {"E": e, "oracle_lower": lower, "dual_upper": upper,
                "margin": upper - lower, "dual_converged": info.converged}

    rows = [one(e) for e in energies]
    out = {"kind": "heuristic sandwich (oracle lower / dual upper)",
           "seed": args.seed, "rows": rows}
    with open(os.path.join(args.out, "oracle_sandwich.json"), "w") as f:
        json.dump(out, f, indent=2, default=_jsonable)
    print(json.dumps(out, default=_jsonable))
    for row in rows:
        if row.get("margin", 0.0) < -1e-6:
            return EXIT_INVARIANT
    return EXIT_OK


def cmd_dicke_range(args) -> int:
    cfg = _load_config(args.config)
    try:
        lo, hi = witness.dicke_field_range(int(cfg["n"]), int(cfg["m"]),
                                           float(cfg["delta_j"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad dicke-range config: {exc}")
    out = {"n": cfg["n"], "m": cfg["m"], "delta_j": cfg["delta_j"],
           "b_low": lo, "b_high": hi}
    with open(os.path.join(args.out, "dicke_range.json"), "w") as f:
        json.dump(out, f, indent=2, default=_jsonable)
    print(json.dumps(out, default=_jsonable))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="proxygap",
        description="Certified entropy-gap entanglement detection for "
                    "spin chains")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for oracle restarts")
    p.add_argument("--out", default=".", help="output directory")
    sub = p.add_subparsers(dest="command", required=True)
    for name, fn, needs_config in [
            ("gap-scan", cmd_gap_scan, True),
            ("ppt-emin", cmd_ppt_emin, True),
            ("thermo-limit", cmd_thermo_limit, True),
            ("bell-gap", cmd_bell_gap, False),
            ("oracle", cmd_oracle, True),
            ("dicke-range", cmd_dicke_range, True)]:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=needs_config,
                        help="JSON run configuration")
        sp.set_defaults(fn=fn)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
