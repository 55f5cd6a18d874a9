"""The benchmark's workloads: inputs made from a seed, one pass through
proxygap's public API, the checks on its outputs, and its operation count.

Each workload's inputs are CLI configs in ``configs/`` (``proxygap
gap-scan``, ``ppt-emin`` or ``thermo-limit`` form), so a workload can be
rerun by hand.  Seed 0 is exactly those configs.  Any other seed moves the
high end of the energy grid (the T grid for thermo-limit) down by a seeded
fraction of one grid step.  The fraction stays below GRID_SHIFT_MAX, which
keeps the rows below E_min,PPT the same rows on both rings and every window
edge between the same two rows, so every seed does the same amount of work.
The low end stays put: whether the first row lands in the strip above E0
where the Dicke witness leaves no feasible state changes a dicke-block pass
by half its time.

An operation is a grid row, a ``ppt_energy_min`` call or a thermo-limit h
value.  A row that is not converged fails only at or above the workload's
certified E_min (the ``PPTResult.value`` of the emin on the scanned model);
below it the primal problem is infeasible and the row is counted apart.
An operation that raises has failed: a scan that raises fails all its rows.
The checks apply to the outputs that were produced.
"""
from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

from proxygap import dual, limit, models, witness

CONFIGS = Path(__file__).resolve().parent / "configs"
GRID_SHIFT_MAX = 0.1


def grid_shift(seed: int) -> float:
    """Seeded fraction of a grid step by which the grid's high end moves."""
    if seed == 0:
        return 0.0
    return random.Random(seed).uniform(0.0, GRID_SHIFT_MAX)


def shifted_high_end(lo: float, hi: float, n_points: int,
                     shift: float) -> float:
    """The high end `hi` of a grid from `lo` moved down by `shift` steps."""
    return hi - shift * (hi - lo) / (n_points - 1)


def classify_rows(rows, e_min):
    """(failed, infeasible) among scan rows: a row below the certified
    E_min is primal-infeasible; an unconverged row at or above it (or any
    unconverged row when there is no E_min) has failed."""
    failed = infeasible = 0
    for row in rows:
        if e_min is not None and row.e < e_min:
            infeasible += 1
        elif not row.converged:
            failed += 1
    return failed, infeasible


def _load(name: str) -> dict:
    with open(CONFIGS / name) as f:
        return json.load(f)


def _model(spec: dict):
    spec = dict(spec)
    if spec.pop("type") != "heisenberg":
        raise ValueError("the benchmark builds heisenberg models only")
    return models.heisenberg_chain(models.HeisenbergParams(**spec))


def _cuts(spec, n: int):
    if spec is None:
        return []
    if spec == "all":
        return witness.all_bipartitions(n)
    if spec == "even-odd":
        return [witness.even_odd_bipartition(n)]
    raise ValueError(f"unsupported cuts spec {spec!r}")


def _constraints(spec: dict, n: int):
    wits = []
    for w in spec.get("witnesses", []):
        if w["type"] != "dicke":
            raise ValueError(f"unsupported witness {w['type']!r}")
        wits.append(witness.dicke_witness(n, int(w["m"])))
    cuts = _cuts(spec.get("cuts"), n)
    return witness.ConstraintSet(tuple(wits), tuple(cuts))


def _near(bad: list, label: str, got, want: float, tol: float):
    if got is None or not abs(got - want) <= tol:
        bad.append(f"{label}: got {got!r}, want {want!r} +- {tol}")


def _within(bad: list, label: str, got, lo: float, hi: float):
    if got is None or not lo <= got <= hi:
        bad.append(f"{label}: got {got!r}, want in [{lo!r}, {hi!r}]")


@dataclass
class ScanInputs:
    h: object
    cs: object
    grid: object
    emins: list  # (label, sites, model, cuts); "eo" is on the scanned model


@dataclass
class ScanOutputs:
    scan: object      # None when the scan raised
    n_points: int
    gap_tol: float
    emins: dict       # label -> PPTResult
    emin_sites: dict  # label -> number of sites of its model
    errors: dict      # "scan" or emin label -> repr of what it raised
    scan_s: float
    emin_s: float

    def timings(self) -> dict:
        out = {"solve_s": self.scan_s + self.emin_s, "scan_s": self.scan_s}
        if self.emins:
            out["emin_s"] = self.emin_s
        return out

    def e_min(self):
        """The certified PPT minimum energy of the scanned model, if run."""
        return self.emins["eo"].value if "eo" in self.emins else None

    def grid_rows(self) -> int:
        return self.n_points


@dataclass
class ScanWorkload:
    """``gap_energy_scan`` plus the ``ppt_energy_min`` calls of its configs.

    `e0` and `e_inf` are the scanned model's ground and mean energies per
    site, used to place the grid's high end for seeds other than 0.
    `expect` maps a label to (per-site value recorded at seed 0, tolerance);
    `refs` maps a label to the acceptance suite's band (lo, hi)."""

    name: str
    scan_config: str
    emin_configs: tuple
    n: int
    e0: float
    e_inf: float
    expect: dict
    refs: dict

    def build(self, seed: int) -> ScanInputs:
        cfg = _load(self.scan_config)
        h = _model(cfg["model"])
        cs = _constraints(cfg.get("constraints", {}), self.n)
        spec = dict(cfg.get("grid", {}))
        scale = self.n if spec.pop("per_site", False) else 1
        grid = dual.GridOptions(entropy=cfg.get("entropy", "von-neumann"),
                                **spec)
        if grid.e_lo is not None:
            grid.e_lo *= scale
        if grid.e_hi is not None:
            grid.e_hi *= scale
        # the scan's own defaults: E0 + 1e-6 of the spread, and the mean
        e0, e_inf = self.e0 * self.n, self.e_inf * self.n
        lo = grid.e_lo if grid.e_lo is not None else e0 + 1e-6 * (e_inf - e0)
        hi = grid.e_hi if grid.e_hi is not None else e_inf
        shift = grid_shift(seed)
        if shift:
            grid.e_hi = shifted_high_end(lo, hi, grid.n_points, shift)
        emins = []
        if cfg.get("ppt_emin"):
            emins.append(("eo", self.n, h, _cuts(cfg["ppt_emin"], self.n)))
        for name in self.emin_configs:
            ecfg = _load(name)
            n = ecfg["model"]["n"]
            emins.append((f"{ecfg['cuts']}-n{n}", n, _model(ecfg["model"]),
                          _cuts(ecfg["cuts"], n)))
        return ScanInputs(h, cs, grid, emins)

    def solve(self, inp: ScanInputs) -> ScanOutputs:
        scan, emins, errors = None, {}, {}
        t0 = time.monotonic()
        try:
            scan = dual.gap_energy_scan(inp.h, inp.cs, inp.grid)
        except Exception as exc:  # every row is a failed operation
            errors["scan"] = repr(exc)
        t1 = time.monotonic()
        for label, _, h, cuts in inp.emins:
            try:
                emins[label] = dual.ppt_energy_min(h, cuts)
            except Exception as exc:  # a failed operation
                errors[label] = repr(exc)
        t2 = time.monotonic()
        return ScanOutputs(scan, inp.grid.n_points,
                           inp.grid.resolved_gap_tolerance(), emins,
                           {label: n for label, n, _, _ in inp.emins},
                           errors, t1 - t0, t2 - t1)

    def values(self, out: ScanOutputs) -> dict:
        """Per-site outputs by label, for the operations that returned."""
        n, res, vals = self.n, out.scan, {}
        if res is not None:
            vals = {"E0/N": res.e0 / n,
                    "edge/N": None if res.e_max_gap is None
                    else res.e_max_gap / n,
                    "window_lo/N": None if res.e_min_gap is None
                    else res.e_min_gap / n,
                    "first_row/N": res.rows[0].e / n}
        for label, r in out.emins.items():
            vals[f"E_min {label}/N"] = r.value / out.emin_sites[label]
        return vals

    def check(self, out: ScanOutputs) -> list:
        bad = []
        vals = self.values(out)
        for label, (want, tol) in self.expect.items():
            if label in vals:
                _near(bad, label, vals[label], want, tol)
        for label, (lo, hi) in self.refs.items():
            if label in vals:
                _within(bad, f"{label} (acceptance band)", vals[label], lo,
                        hi)
        if out.scan is None:
            return bad
        # the window opens at the first grid row, as recorded at seed 0
        _near(bad, "window_lo/N at the first row", vals["window_lo/N"],
              vals["first_row/N"], 0.0)
        for r in out.scan.rows:
            if r.detected != (r.s_gibbs - r.s_dual > out.gap_tol):
                bad.append(f"row at E={r.e!r}: detected flag disagrees")
        return bad

    def operations(self, out: ScanOutputs):
        """(attempted, failed, infeasible rows) of one pass."""
        if out.scan is None:
            failed, infeasible = out.n_points, 0
        else:
            failed, infeasible = classify_rows(out.scan.rows, out.e_min())
        failed += sum(not r.converged for r in out.emins.values())
        failed += len(out.errors) - ("scan" in out.errors)
        return out.n_points + len(out.emin_sites), failed, infeasible


@dataclass
class RegionInputs:
    r: float
    h_grid: list
    t_grid: list


@dataclass
class RegionOutputs:
    t_max: dict   # h -> t_max
    errors: dict  # h -> repr of the exception it raised
    region_s: float

    def timings(self) -> dict:
        return {"solve_s": self.region_s, "region_s": self.region_s}

    def e_min(self):
        return None

    def grid_rows(self) -> int:
        return 0


@dataclass
class RegionWorkload:
    """``theorem3_region`` one h value at a time, as ``proxygap
    thermo-limit`` runs it; `expect` maps h to the t_max recorded at seed 0
    and `rel_tol` is the tolerance on it."""

    name: str
    config: str
    expect: dict
    rel_tol: float

    def build(self, seed: int) -> RegionInputs:
        cfg = _load(self.config)
        t_grid = [float(t) for t in cfg["t_grid"]]
        t_grid[-1] -= grid_shift(seed) * (t_grid[-1] - t_grid[-2])
        return RegionInputs(float(cfg["r"]), [float(h) for h in cfg["h_grid"]],
                            t_grid)

    def solve(self, inp: RegionInputs) -> RegionOutputs:
        t_max, errors = {}, {}
        t0 = time.monotonic()
        for h in inp.h_grid:
            try:
                region = limit.theorem3_region(inp.r, [h], inp.t_grid)
            except Exception as exc:  # the h value is a failed operation
                errors[h] = repr(exc)
                continue
            t_max[h] = float(region.t_max[0])
        return RegionOutputs(t_max, errors, time.monotonic() - t0)

    def check(self, out: RegionOutputs) -> list:
        bad = []
        for h, want in self.expect.items():
            if h in out.errors:
                continue
            got = out.t_max.get(h)
            if got is None or not math.isfinite(got) or got <= 0:
                bad.append(f"h={h}: t_max {got!r} is not a positive "
                           "detection temperature (acceptance criterion 7)")
                continue
            _near(bad, f"t_max(h={h})", got, want, self.rel_tol * want)
        return bad

    def operations(self, out: RegionOutputs):
        return len(out.t_max) + len(out.errors), len(out.errors), 0


# refs are the bands of REF1, REF2, REF4 and REF5 in tests/test_acceptance.py
WORKLOADS = {w.name: w for w in [
    ScanWorkload(
        "dicke-block", "dicke-block.gap-scan.json", (), n=11,
        e0=-13.753266703019635, e_inf=0.0,
        expect={"E0/N": (-13.753266703019635, 1e-9),
                "edge/N": (-12.804974665111155, 2e-3)},
        refs={"E0/N": (-13.753 - 1e-3, -13.753 + 1e-3),
              "window_lo/N": (-13.599 * 1.05, -13.599 * 0.95),
              "edge/N": (-12.890 * 1.05, -12.890 * 0.95)}),
    ScanWorkload(
        "ppt-ring", "ppt-ring.gap-scan.json", ("ppt-ring.ppt-emin.json",),
        n=5, e0=-1.4944271909999165, e_inf=0.0,
        expect={"E0/N": (-1.4944271909999165, 1e-9),
                "edge/N": (-0.677783203125, 2e-3),
                "E_min eo/N": (-1.0075298180059866, 1e-4),
                "E_min all-n4/N": (-1.0000023811518408, 1e-4)},
        refs={"E0/N": (-1.494 - 1e-3, -1.494 + 1e-3),
              "E_min eo/N": (-1.008 - 5e-3, -1.008 + 5e-3),
              "edge/N": (-0.695 - 0.01, -0.695 + 0.08),
              "E_min all-n4/N": (-1.000 - 5e-3, -1.000 + 5e-3)}),
    ScanWorkload(
        "linear-ring", "linear-ring.gap-scan.json", (), n=4,
        e0=-2.0, e_inf=0.0,
        expect={"E0/N": (-2.0, 1e-9),
                "edge/N": (-0.37963867187499994, 2e-3),
                "E_min eo/N": (-1.0000001061737342, 1e-4)},
        refs={"E0/N": (-2.000 - 1e-3, -2.000 + 1e-3),
              "E_min eo/N": (-1.000 - 5e-3, -1.000 + 5e-3),
              "edge/N": (-0.370 - 0.05, -0.370 + 0.05)}),
    RegionWorkload(
        "thermo-limit", "thermo-limit.json",
        expect={1.0: 0.16451079678263344, 1.4: 0.61359369168758349},
        rel_tol=1e-6),
]}
