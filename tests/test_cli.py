import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import proxygap.dual as dual_mod
from proxygap.cli import (EXIT_CONFIG, EXIT_OK, main)

DATA = Path(__file__).parent / "data"


def _write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _gap_scan_cfg(**extra):
    cfg = {
        "model": {"type": "heisenberg", "n": 3, "jx": -1, "jy": -1,
                  "jz": -1},
        "constraints": {"cuts": "even-odd"},
        "grid": {"n_points": 8},
    }
    cfg.update(extra)
    return cfg


def _assert_rows_consistent(rows, tol):
    """delta_S = S_gibbs - S_dual and detected = delta_S > tol on every
    row; an infeasible row has S_dual = -inf and delta_S = inf."""
    for r in rows:
        gap = float(r["S_gibbs"]) - float(r["S_dual"])
        if float(r["S_dual"]) == float("-inf"):
            assert float(r["delta_S"]) == float("inf")
        else:
            assert abs(gap - float(r["delta_S"])) < 1e-12
        assert int(r["detected"]) == int(gap > tol)


def test_gap_scan_outputs_and_consistency(tmp_path):
    cfg_path = _write_config(tmp_path, "cfg.json", _gap_scan_cfg())
    out = tmp_path / "run"
    assert main(["--out", str(out), "gap-scan", "--config", cfg_path]) == \
        EXIT_OK
    with open(out / "gap_scan.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 8
    summary = json.loads((out / "gap_scan_summary.json").read_text())
    _assert_rows_consistent(rows, summary["gap_tolerance"])
    assert sum(int(r["detected"]) for r in rows) > 0
    # detection fraction = bisected window width over the energy range
    frac = ((summary["e_max_gap"] - summary["e0"])
            / (summary["e_max"] - summary["e0"]))
    assert summary["detection_fraction"] == pytest.approx(frac)
    assert summary["e_min_gap"] is not None
    assert summary["rows_converged"] is True
    assert summary["rows_infeasible"] == 0


def test_gap_scan_rows_below_ppt_emin_are_infeasible(tmp_path):
    # E_min,PPT = -4 on the 4-ring: the 4 grid rows below it hold no PPT
    # state, so their solves end at a certificate, not at max_iter
    cfg = _gap_scan_cfg()
    cfg["model"]["n"] = 4
    cfg_path = _write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "run"
    assert main(["--out", str(out), "gap-scan", "--config", cfg_path]) == \
        EXIT_OK
    with open(out / "gap_scan.csv") as f:
        rows = list(csv.DictReader(f))
    summary = json.loads((out / "gap_scan_summary.json").read_text())
    _assert_rows_consistent(rows, summary["gap_tolerance"])
    below = [r for r in rows if float(r["E"]) < -4.0]
    assert len(below) == 4
    for r in below:
        assert r["S_dual"] == "-inf" and r["delta_S"] == "inf"
        assert r["detected"] == "1"
    assert all(float(r["S_dual"]) > float("-inf") for r in rows
               if float(r["E"]) >= -4.0)
    assert summary["rows_infeasible"] == 4
    assert summary["rows_converged"] is True
    # the window reaches the grid floor: its lower edge is not located
    assert summary["e_min_gap_open"] is True
    assert summary["e_min_gap"] == float(rows[0]["E"])


def test_gap_scan_summary_records_the_witness_path(tmp_path):
    # XXZ 5-ring with a Dicke witness: momentum blocks, conjugate pairs
    # counted twice, and the certified lowest energy that meets the witness
    cfg = {"model": {"type": "heisenberg", "n": 5, "jx": 5, "jy": 5,
                     "jz": 1, "b": -1},
           "constraints": {"witnesses": [{"type": "dicke", "m": 2}]},
           "grid": {"n_points": 6, "bisect_iters": 4}}
    cfg_path = _write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "run"
    assert main(["--out", str(out), "gap-scan", "--config", cfg_path]) == \
        EXIT_OK
    summary = json.loads((out / "gap_scan_summary.json").read_text())
    assert (summary["path"], summary["fallback"]) == ("momentum", None)
    assert {m for _, m in summary["block_sizes"]} == {1, 2}
    assert summary["e_min_w_per_site"] == pytest.approx(-6.0460368, abs=1e-6)
    with open(out / "gap_scan.csv") as f:
        rows = list(csv.DictReader(f))
    _assert_rows_consistent(rows, summary["gap_tolerance"])
    below = [float(r["E"]) < summary["e_min_w"] for r in rows]
    assert [float(r["S_dual"]) == float("-inf") for r in rows] == below
    assert summary["rows_infeasible"] == sum(below) > 0


def test_gap_scan_ground_projector_witness_is_a_certificate(tmp_path):
    # the 4-site Ising ring's ground space holds the product state |++++>,
    # so its projector witness must allow the ground energy: no row is
    # infeasible and none is detected
    cfg = {"model": {"type": "xy", "n": 4, "r": 1, "h": 0},
           "constraints": {"witnesses": [{"type": "ground-projector"}]},
           "grid": {"n_points": 6}}
    cfg_path = _write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "run"
    assert main(["--out", str(out), "gap-scan", "--config", cfg_path]) == \
        EXIT_OK
    with open(out / "gap_scan.csv") as f:
        rows = list(csv.DictReader(f))
    summary = json.loads((out / "gap_scan_summary.json").read_text())
    _assert_rows_consistent(rows, summary["gap_tolerance"])
    assert summary["rows_infeasible"] == 0
    assert not any(int(r["detected"]) for r in rows)
    assert summary["e_min_w"] <= summary["e0"]


def test_gap_scan_locates_a_lower_edge_above_the_first_row(tmp_path):
    # the easy-axis ferromagnet's low-T mixture of |0000> and |1111> is
    # separable; the window over all cuts opens above the first grid row
    cfg = _gap_scan_cfg(grid={"n_points": 10, "bisect_iters": 4})
    cfg["model"] = {"type": "heisenberg", "n": 4, "jx": 1, "jy": 1,
                    "jz": 1.2}
    cfg["constraints"] = {"cuts": "all"}
    cfg_path = _write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "run"
    assert main(["--out", str(out), "gap-scan", "--config", cfg_path]) == \
        EXIT_OK
    with open(out / "gap_scan.csv") as f:
        rows = list(csv.DictReader(f))
    summary = json.loads((out / "gap_scan_summary.json").read_text())
    assert rows[0]["detected"] == "0" and rows[1]["detected"] == "1"
    assert summary["e_min_gap_open"] is False
    assert float(rows[0]["E"]) < summary["e_min_gap"] < float(rows[1]["E"])


def test_gap_scan_deterministic_bytes(tmp_path):
    cfg_path = _write_config(tmp_path, "cfg.json", _gap_scan_cfg())
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["--out", str(out), "gap-scan", "--config",
                     cfg_path]) == EXIT_OK
        outs.append((out / "gap_scan.csv").read_bytes())
    assert outs[0] == outs[1]


def test_gap_scan_empty_constraints_no_detection(tmp_path):
    cfg = _gap_scan_cfg()
    cfg["constraints"] = {}
    cfg_path = _write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "run"
    assert main(["--out", str(out), "gap-scan", "--config", cfg_path]) == \
        EXIT_OK
    with open(out / "gap_scan.csv") as f:
        rows = list(csv.DictReader(f))
    assert all(int(r["detected"]) == 0 for r in rows)
    summary = json.loads((out / "gap_scan_summary.json").read_text())
    assert summary["e_max_gap"] is None
    assert summary["detection_fraction"] == 0.0


# the gap-scan configs of the benchmark workloads, without their ppt_emin
GOLDEN_SCANS = {
    "dicke-block": {
        "model": {"type": "heisenberg", "n": 11, "jx": 11, "jy": 11,
                  "jz": 1, "b": -1},
        "constraints": {"witnesses": [{"type": "dicke", "m": 5}]},
        "entropy": "von-neumann",
        "grid": {"n_points": 7, "bisect_iters": 12}},
    "ppt-ring": {
        "model": {"type": "heisenberg", "n": 5, "jx": -1, "jy": -1,
                  "jz": -1},
        "constraints": {"cuts": "even-odd"},
        "entropy": "von-neumann",
        "grid": {"n_points": 5, "e_lo": -1.2, "per_site": True,
                 "bisect_iters": 10}},
    "linear-ring": {
        "model": {"type": "heisenberg", "n": 4, "jx": -1, "jy": -1,
                  "jz": -1},
        "constraints": {"cuts": "even-odd"},
        "entropy": "linear",
        "grid": {"n_points": 4, "e_lo": -1.2, "per_site": True,
                 "bisect_iters": 12}},
}


# (e_min_gap, e_max_gap) of each golden scan, from the same checked
# version: every bisection step reads one verdict, and the witness path's
# edge is the energy its maximization over s certifies, so the edges are
# exact
GOLDEN_EDGES = {
    "dicke-block": (-151.28578244728237, -140.85714987328186),
    "ppt-ring": (-6.0, -3.388916015625),
    "linear-ring": (-4.8, -1.5185546874999998),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SCANS))
def test_gap_scan_rows_match_the_golden_csv(tmp_path, name):
    # tests/data/gap_scan_<name>.csv holds the rows of an earlier, checked
    # version of the solvers.  Flags and infinities must match exactly and
    # every other float to 1e-10 relative; delta_S, a difference that can
    # sit at 1e-13, is held to 1e-10 of S_gibbs, and E and E_per_site,
    # whose top row is the mean of a traceless H (zero up to rounding), to
    # 1e-10 of the golden file's energy range.  The window edges must
    # match exactly.
    cfg_path = _write_config(tmp_path, "cfg.json", GOLDEN_SCANS[name])
    out = tmp_path / "run"
    assert main(["--out", str(out), "gap-scan", "--config", cfg_path]) == \
        EXIT_OK
    summary = json.loads((out / "gap_scan_summary.json").read_text())
    assert (summary["e_min_gap"], summary["e_max_gap"]) == GOLDEN_EDGES[name]
    with open(out / "gap_scan.csv") as f:
        rows = list(csv.DictReader(f))
    with open(DATA / f"gap_scan_{name}.csv") as f:
        golden = list(csv.DictReader(f))
    assert len(rows) == len(golden)
    span = {key: np.ptp([float(r[key]) for r in golden])
            for key in ("E", "E_per_site")}
    for row, ref in zip(rows, golden):
        assert row.keys() == ref.keys()
        assert row["detected"] == ref["detected"]
        for key in ref.keys() - {"detected"}:
            a, b = float(row[key]), float(ref[key])
            if not math.isfinite(b):
                assert a == b, (key, row, ref)
                continue
            scale = (abs(float(ref["S_gibbs"])) if key == "delta_S" else
                     span.get(key, 0.0))
            assert math.isclose(a, b, rel_tol=1e-10,
                                abs_tol=1e-10 * scale), (key, row, ref)


@pytest.mark.parametrize("name", sorted(GOLDEN_SCANS))
def test_gap_scan_s_dual_never_exceeds_s_gibbs(tmp_path, name):
    # S_Gibbs is attained by a feasible state wherever the gap is zero, so
    # an upper bound below it is a rounding error: allow 4 ulp, no more
    cfg_path = _write_config(tmp_path, "cfg.json", GOLDEN_SCANS[name])
    out = tmp_path / "run"
    assert main(["--out", str(out), "gap-scan", "--config", cfg_path]) == \
        EXIT_OK
    with open(out / "gap_scan.csv") as f:
        rows = list(csv.DictReader(f))
    for r in rows:
        delta, s_gibbs = float(r["delta_S"]), float(r["S_gibbs"])
        if math.isfinite(delta):
            assert delta >= -4 * math.ulp(s_gibbs), r


@pytest.mark.parametrize("e_lo", [math.nan, math.inf, -100.0])
def test_gap_scan_bad_grid_end_exits_2(tmp_path, e_lo):
    # a grid end that is not finite or lies below E0 is a config error,
    # raised before any solve
    cfg = json.loads(json.dumps(GOLDEN_SCANS["linear-ring"]))
    cfg["grid"]["e_lo"] = e_lo
    cfg_path = _write_config(tmp_path, "cfg.json", cfg)
    assert main(["--out", str(tmp_path / "run"), "gap-scan",
                 "--config", cfg_path]) == EXIT_CONFIG


def test_gap_scan_summary_counts_decided_bisection_steps(tmp_path):
    # a bisection step that detects stops at its first certifying point;
    # the SPG path (ppt-ring) bisects its edges
    cfg_path = _write_config(tmp_path, "cfg.json", GOLDEN_SCANS["ppt-ring"])
    out = tmp_path / "run"
    assert main(["--out", str(out), "gap-scan", "--config", cfg_path]) == \
        EXIT_OK
    summary = json.loads((out / "gap_scan_summary.json").read_text())
    assert 0 < summary["bisect_decided"] <= summary["bisect_steps"]


def test_gap_scan_with_ppt_block(tmp_path):
    cfg = _gap_scan_cfg(ppt_emin="all")
    cfg_path = _write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "run"
    assert main(["--out", str(out), "gap-scan", "--config", cfg_path]) == \
        EXIT_OK
    summary = json.loads((out / "gap_scan_summary.json").read_text())
    assert summary["ppt_converged"] is True
    assert summary["e_min_ppt"] >= summary["e0"] - 1e-9
    assert 0 < summary["ppt_iterations"] <= 20000  # the default max_iter
    assert 0 <= summary["ppt_rejected"] < summary["ppt_iterations"]


def test_gap_scan_with_ppt_emin_prepares_once(tmp_path, monkeypatch):
    # the benchmark's ppt-ring scan has ppt_emin on its own cut and no
    # witness: the scan and the PPT minimum energy share one problem
    calls = []
    prepare = dual_mod.prepare_dual

    def counted(h, cs):
        calls.append(cs)
        return prepare(h, cs)

    monkeypatch.setattr(dual_mod, "prepare_dual", counted)
    cfg = json.loads((Path(__file__).parents[1] / "bench" / "configs"
                      / "ppt-ring.gap-scan.json").read_text())
    out = tmp_path / "run"
    assert main(["--out", str(out), "gap-scan", "--config",
                 _write_config(tmp_path, "cfg.json", cfg)]) == EXIT_OK
    assert len(calls) == 1
    summary = json.loads((out / "gap_scan_summary.json").read_text())
    assert summary["ppt_converged"] is True
    # other cuts than the scan's prepare their own problem
    calls.clear()
    cfg["ppt_emin"] = "all"
    assert main(["--out", str(out), "gap-scan", "--config",
                 _write_config(tmp_path, "cfg.json", cfg)]) == EXIT_OK
    assert len(calls) == 2


def test_bad_configs_exit_2(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["--out", str(tmp_path), "gap-scan", "--config",
                 missing]) == EXIT_CONFIG
    bad_model = _write_config(tmp_path, "bad1.json",
                              {"model": {"type": "unknown"}})
    assert main(["--out", str(tmp_path), "gap-scan", "--config",
                 bad_model]) == EXIT_CONFIG
    bad_witness = _write_config(
        tmp_path, "bad2.json",
        _gap_scan_cfg(constraints={"witnesses": [{"type": "nope"}]}))
    assert main(["--out", str(tmp_path), "gap-scan", "--config",
                 bad_witness]) == EXIT_CONFIG
    not_json = tmp_path / "bad3.json"
    not_json.write_text("{broken")
    assert main(["--out", str(tmp_path), "gap-scan", "--config",
                 str(not_json)]) == EXIT_CONFIG


def test_ppt_emin_command(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, "cfg.json", {
        "model": {"type": "heisenberg", "n": 2, "jx": -1, "jy": -1,
                  "jz": -1, "periodic": False},
        "cuts": [[0]],
    })
    out = tmp_path / "run"
    assert main(["--out", str(out), "ppt-emin", "--config", cfg_path]) == \
        EXIT_OK
    payload = json.loads((out / "ppt_emin.json").read_text())
    assert payload["e_min_ppt"] == pytest.approx(-1.0, abs=5e-4)
    assert payload["converged"] is True
    assert 0 < payload["iterations"] <= 20000  # the default max_iter
    assert 0 <= payload["rejected"] < payload["iterations"]
    assert json.loads(capsys.readouterr().out)["converged"] is True


def test_bell_gap_command(tmp_path):
    cfg_path = _write_config(tmp_path, "cfg.json",
                             {"beta": 1.0, "nu": 5.0,
                              "d_list": [2 ** k for k in (10, 15, 20)]})
    out = tmp_path / "run"
    assert main(["--out", str(out), "bell-gap", "--config", cfg_path]) == \
        EXIT_OK
    with open(out / "bell_gap.csv") as f:
        rows = list(csv.DictReader(f))
    vals = [float(r["gap_bound"]) for r in rows]
    assert vals == sorted(vals)
    assert vals[-1] >= 4.99


def test_oracle_command_margin_nonnegative(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, "cfg.json", {
        "model": {"type": "heisenberg", "n": 3, "jx": -1, "jy": -1,
                  "jz": -1},
        "constraints": {"cuts": "all"},
        "energies": [-0.45, -0.8],
        "per_site": True,
        "ensemble_size": 48,
    })
    out = tmp_path / "run"
    assert main(["--seed", "7", "--out", str(out), "oracle", "--config",
                 cfg_path]) == EXIT_OK
    payload = json.loads((out / "oracle_sandwich.json").read_text())
    assert payload["seed"] == 7
    by_e = {row["E"]: row for row in payload["rows"]}
    assert by_e[-0.45 * 3]["margin"] >= -1e-6
    # -0.8 per site lies below the separable energy range
    assert "infeasible" in by_e[-0.8 * 3]


_ORACLE_CFG = {
    "model": {"type": "heisenberg", "n": 3, "jx": -1, "jy": -1, "jz": -1},
    "constraints": {"cuts": "all"},
    "energies": [-1.0],
    "ensemble_size": 8,
}


_SCAN_CFG = {
    "model": {"type": "heisenberg", "n": 3, "jx": -1, "jy": -1, "jz": -1},
    "constraints": {"cuts": "even-odd"},
    "entropy": "von-neumann",
    "grid": {"n_points": 3, "bisect_iters": 2},
}


@pytest.mark.parametrize("command, cfg", [
    ("bell-gap", {"beta": -1}),
    ("bell-gap", {"d_list": [1, 4]}),
    ("oracle", dict(_ORACLE_CFG, energies=["x"])),
    ("oracle", dict(_ORACLE_CFG, ensemble_size="many")),
    ("gap-scan", dict(_SCAN_CFG, entropy="foo")),
    ("gap-scan", dict(_SCAN_CFG, entropy="lineer")),
    ("gap-scan", dict(_SCAN_CFG, entropy=None)),
    ("gap-scan", dict(_SCAN_CFG, grid={"n_points": "4"})),
    ("gap-scan", dict(_SCAN_CFG, grid={"n_points": 0})),
    ("gap-scan", dict(_SCAN_CFG, grid={"bisect_iters": -1})),
    ("gap-scan", dict(_SCAN_CFG, grid={"e_lo": "low"})),
    ("gap-scan", dict(_SCAN_CFG, grid="dense")),
    ("gap-scan", dict(_SCAN_CFG, solver={"tol": "x"})),
    ("gap-scan", dict(_SCAN_CFG, solver={"tol": 0.0})),
    ("gap-scan", dict(_SCAN_CFG, solver={"max_iter": 0})),
    ("gap-scan", dict(_SCAN_CFG, solver={"max_iter": 2.5})),
], ids=["bell-beta", "bell-d", "oracle-energy", "oracle-ensemble",
        "scan-entropy", "scan-entropy-typo", "scan-entropy-null",
        "scan-n-points-str", "scan-n-points-0", "scan-bisect-neg",
        "scan-e-lo-str", "scan-grid-str", "scan-tol-str", "scan-tol-0",
        "scan-max-iter-0", "scan-max-iter-float"])
def test_bad_values_exit_2_before_any_solve(tmp_path, monkeypatch, command,
                                            cfg):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve started before the config was read")

    monkeypatch.setattr(dual_mod, "prepare_dual", no_solve)
    cfg_path = _write_config(tmp_path, "cfg.json", cfg)
    assert main(["--out", str(tmp_path / "run"), command,
                 "--config", cfg_path]) == EXIT_CONFIG


def test_oracle_prepares_the_dual_once(tmp_path, monkeypatch):
    # the split and every block eigh are shared by all the run's energies
    calls = []
    prepare = dual_mod.prepare_dual

    def counted(h, cs):
        calls.append(cs)
        return prepare(h, cs)

    monkeypatch.setattr(dual_mod, "prepare_dual", counted)
    cfg_path = _write_config(tmp_path, "cfg.json", {
        "model": {"type": "heisenberg", "n": 3, "jx": -1, "jy": -1,
                  "jz": -1},
        "constraints": {"cuts": "all"},
        "energies": [-0.45, -0.3],
        "per_site": True,
        "ensemble_size": 8,
    })
    out = tmp_path / "run"
    assert main(["--out", str(out), "oracle", "--config", cfg_path]) == \
        EXIT_OK
    rows = json.loads((out / "oracle_sandwich.json").read_text())["rows"]
    assert [("dual_upper" in row) for row in rows] == [True, True]
    assert len(calls) == 1


def test_dicke_range_command(tmp_path):
    cfg_path = _write_config(tmp_path, "cfg.json",
                             {"n": 11, "m": 5, "delta_j": 10.0})
    out = tmp_path / "run"
    assert main(["--out", str(out), "dicke-range", "--config",
                 cfg_path]) == EXIT_OK
    payload = json.loads((out / "dicke_range.json").read_text())
    assert payload["b_low"] == pytest.approx(-2.0)
    assert payload["b_high"] == pytest.approx(0.0)
    bad = _write_config(tmp_path, "bad.json", {"n": 11, "m": 5})
    assert main(["--out", str(out), "dicke-range", "--config", bad]) == \
        EXIT_CONFIG


def test_thermo_limit_command(tmp_path):
    cfg_path = _write_config(tmp_path, "cfg.json", {
        "r": 1.0, "h_grid": [0.5, 1.0], "t_grid": [0.01, 0.1, 1.0]})
    out = tmp_path / "run"
    assert main(["--out", str(out), "thermo-limit",
                 "--config", cfg_path]) == EXIT_OK
    with open(out / "theorem3_region.csv") as f:
        assert f.readline().startswith("#")
        rows = list(csv.DictReader(f))
    assert len(rows) == 6
    with open(out / "t_max.csv") as f:
        assert f.readline().startswith("#")
        tmax_rows = list(csv.DictReader(f))
    assert [float(r["h"]) for r in tmax_rows] == [0.5, 1.0]


@pytest.mark.parametrize("r,t_grid", [(1.0, [0.1, math.nan]),
                                      (1.0, [0.0, 0.1]),
                                      (1.5, [0.1, 1.0])])
def test_thermo_limit_bad_region_exits_2(tmp_path, r, t_grid):
    # json writes nan as NaN, which json.load reads back
    cfg_path = _write_config(tmp_path, "cfg.json", {
        "r": r, "h_grid": [0.5, 1.0], "t_grid": t_grid})
    assert main(["--out", str(tmp_path / "run"), "thermo-limit",
                 "--config", cfg_path]) == EXIT_CONFIG


def test_cli_import_leaves_out_scipy_optimize_integrate_special():
    # the program's own root finder, minimiser and quadrature replace
    # these three subpackages; importing them costs every process time
    # and memory
    code = ("import sys, proxygap.cli; "
            "print(sorted(m for m in ('scipy.optimize', 'scipy.integrate', "
            "'scipy.special') if m in sys.modules))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


_SCAN_WITHOUT_SCIPY = """
import sys
import proxygap.cli
from proxygap.dual import GridOptions, gap_energy_scan, ppt_energy_min
from proxygap.limit import theorem3_region
from proxygap.models import HeisenbergParams, heisenberg_chain
from proxygap.witness import ConstraintSet, dicke_witness, even_odd_bipartition

xxz = heisenberg_chain(HeisenbergParams(5, 5, 5, 1, -1))
res = gap_energy_scan(xxz, ConstraintSet((dicke_witness(5, 2),)),
                      GridOptions(n_points=4, bisect_iters=3))
assert res.path == "momentum"
afm = heisenberg_chain(HeisenbergParams(4, -1, -1, -1))
cut = even_odd_bipartition(4)
res = gap_energy_scan(afm, ConstraintSet(map_slots=(cut,)),
                      GridOptions(n_points=3, bisect_iters=2))
assert res.path == "sector"
assert ppt_energy_min(afm, [cut]).converged
theorem3_region(1.0, [1.0], [0.5, 1.0])
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_runs_leave_out_scipy():
    # numpy alone builds the operators and their blocks and diagonalizes
    # them: a witness scan, a PPT scan with its minimum energy and a
    # thermodynamic-limit map load no scipy module
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", _SCAN_WITHOUT_SCIPY],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
