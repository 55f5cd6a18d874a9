"""Tests of the benchmark's own code: python3 -m pytest bench -q"""
import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from proxygap import dual, limit, models, witness  # noqa: E402

import child  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

MODULES = (np, dual, limit, models, witness)


def _span(i, parent, start, end, name="x"):
    return {"id": i, "name": name, "parent": parent, "start": start,
            "end": end}


def test_self_time_subtracts_what_children_cover():
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 4.0),
             _span(2, 0, 3.0, 6.0), _span(3, 1, 2.0, 3.0)]
    assert tr.self_times(spans) == {0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0}


def test_tracer_records_nested_spans_and_restores():
    ticks = iter(range(100))
    ns = SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(x) * 2
    originals = (ns.inner, ns.outer)
    t = tr.Tracer(clock=lambda: float(next(ticks)))
    assert t.wrap(ns, "outer", "outer") and t.wrap(ns, "inner", "inner")
    assert not t.wrap(ns, "missing", "missing")
    assert ns.outer(1) == 4
    t.restore()
    assert (ns.inner, ns.outer) == originals
    outer, inner = t.spans
    assert (outer["start"], inner["start"], inner["end"], outer["end"]) == \
        (0.0, 1.0, 2.0, 3.0)
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert tr.self_times(t.spans) == {0: 2.0, 1: 1.0}
    assert tr.busy_time(t.spans, "outer") == 3.0


def test_layer_metrics_of_a_call_that_raised():
    spans = [_span(0, None, 0.0, 2.0, "dual.scan"),
             _span(1, 0, 0.0, 1.0, "dual.solve"),
             dict(_span(2, 0, 1.0, 2.0, "dual.solve"), e=-3.0, iterations=7,
                  converged=True)]
    m = tr.layer_metrics(spans, 4.0, -2.0, 1, 0, 0.0)
    assert m["dual.solves"][0] == 2 and m["dual.bisect_solves"][0] == 1
    assert m["dual.iters"][0] == 7 and m["dual.unconverged"][0] == 1
    assert m["dual.infeasible_iter_frac"][0] == 1.0
    assert m["dual.solve_self_pct"][0] == 50.0


def test_failed_versus_infeasible_rows():
    rows = [SimpleNamespace(e=e, converged=c) for e, c in
            [(-3.0, False), (-2.5, True), (-2.0, False), (-1.0, True),
             (0.0, False)]]
    # below E_min: infeasible whether converged or not; at or above it an
    # unconverged row has failed
    assert wl.classify_rows(rows, -2.0) == (2, 2)
    # without a certified E_min every unconverged row has failed
    assert wl.classify_rows(rows, None) == (3, 0)


def test_operations_that_raise_have_failed():
    ppt = wl.WORKLOADS["ppt-ring"]
    out = wl.ScanOutputs(
        scan=None, n_points=5, gap_tol=1e-4,
        emins={"eo": SimpleNamespace(value=-5.0376, converged=False)},
        emin_sites={"eo": 5, "all-n4": 4},
        errors={"scan": "LinAlgError()", "all-n4": "ValueError()"},
        scan_s=1.0, emin_s=1.0)
    # 5 rows of the scan that raised, the unconverged and the raising emin
    assert ppt.operations(out) == (7, 7, 0)
    assert ppt.check(out) == []


def test_seeded_grid_shift():
    assert wl.grid_shift(0) == 0.0
    shifts = [wl.grid_shift(s) for s in range(1, 50)]
    assert shifts == [wl.grid_shift(s) for s in range(1, 50)]
    assert all(0.0 <= f < wl.GRID_SHIFT_MAX for f in shifts)
    assert wl.shifted_high_end(-10.0, 0.0, 6, 0.0) == 0.0
    assert wl.shifted_high_end(-10.0, 0.0, 6, 1.0) == -2.0


def test_metric_names_match_the_benchmark_definition():
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    name = re.compile(r"[A-Za-z0-9_.-]+")
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    workloads = [w["name"] for w in bench["workloads"]]
    for n in list(e2e) + list(layers) + workloads:
        assert name.fullmatch(n), n
    assert e2e == run.END_TO_END
    produced = {n: unit for n, (_, unit) in
                tr.layer_metrics([], 1.0, None, 0, 0, 0.0).items()}
    produced["trace.overhead_s"] = "s"
    assert layers == produced
    assert workloads == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(wl.WORKLOADS)


class _BindingProbe:
    """A workload whose solve records what every traced name is bound to."""

    def __init__(self):
        self.bound = None

    def build(self, seed):
        return None

    def solve(self, inputs):
        self.bound = [getattr(owner, attr, None)
                      for owner, attr, _, _ in tr.targets(*MODULES)]
        return SimpleNamespace(timings=lambda: {"solve_s": 0.0},
                               e_min=lambda: None, grid_rows=lambda: 0,
                               errors={})

    def check(self, out):
        return []

    def operations(self, out):
        return 1, 0, 0


def test_untraced_pass_leaves_every_binding_untouched():
    originals = [getattr(owner, attr, None)
                 for owner, attr, _, _ in tr.targets(*MODULES)]
    probe = _BindingProbe()
    child.run_pass(probe, 0, None, 0.0, MODULES)
    assert all(a is b for a, b in zip(probe.bound, originals))

    child.run_pass(probe, 0, tr.Tracer(), 0.0, MODULES)
    wrapped = [a is not b for a, b in zip(probe.bound, originals)]
    assert wrapped == [b is not None for b in originals]
    after = [getattr(owner, attr, None)
             for owner, attr, _, _ in tr.targets(*MODULES)]
    assert all(a is b for a, b in zip(after, originals))
