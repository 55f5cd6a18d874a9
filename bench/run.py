"""proxygap benchmark: certified-scan workloads, end to end and per layer.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run is a closed loop with one client: it starts one child process per
pass (bench/child.py), one at a time, until the next pass would end after
S seconds; it always makes at least one pass.  Each pass imports proxygap
from src/, builds the workload's inputs from the seed, runs them through
proxygap's public API and checks the outputs.  BLAS is pinned to
BLAS_THREADS thread(s) in every child.

With --trace 0 the result reports the end-to-end metrics, each the median
over the run's passes.  With --trace 1 the passes alternate untraced and
traced, and the result reports the per-layer metrics of the traced passes
plus trace.overhead_s, the traced minus the untraced median pass time.

Every metric is printed by name with its unit and sample count; the last
line of standard output is the JSON result.  The exit code is 0 when every
output a pass produced is correct, 1 when some are not, and 2 when a pass
could not run (then no result is printed).  An operation of the program
that raises is a failed operation, not a failed pass.  Each run also writes a record with
the environment and every pass to .bench_out/, and the spans of traced
passes to .bench_out/spans/.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("dicke-block", "ppt-ring", "linear-ring", "thermo-limit")
BLAS_THREADS = 1
RUN_LIMIT_S = 150  # no pass starts that would end a run after this

END_TO_END = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}


class PassError(RuntimeError):
    pass


def run_pass(workload: str, seed: int, traced: bool, spans_file: Path,
             timeout: float) -> dict:
    """Run one pass in a child process and return its JSON record."""
    threads = str(BLAS_THREADS)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), workload, str(seed),
             "1" if traced else "0", repr(spawn), str(spans_file)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"pass did not end within {timeout:.0f} s") from exc
    total = time.monotonic() - spawn
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"pass exited with code {proc.returncode}:\n"
                        f"{proc.stderr.strip()[-2000:]}")
    record = json.loads(lines[-1])
    record.update(total_s=total, traced=traced)
    return record


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> list:
    """Passes until the next would end after `seconds`; with `trace` they
    alternate untraced and traced, at least one of each."""
    (OUT / "spans").mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    passes = []
    while True:
        traced = trace and len(passes) % 2 == 1
        spans = f"{workload}-seed{seed}-pass{len(passes)}.jsonl"
        elapsed = time.monotonic() - start
        passes.append(run_pass(workload, seed, traced, OUT / "spans" / spans,
                               RUN_LIMIT_S - elapsed))
        if trace and len(passes) < 2:
            continue
        elapsed = time.monotonic() - start
        typical = statistics.median(p["total_s"] for p in passes)
        if elapsed + typical > min(seconds, RUN_LIMIT_S):
            return passes


def summary(values, unit: str) -> dict:
    values = list(values)
    return {"value": statistics.median(values), "unit": unit,
            "max": max(values), "n": len(values)}


def end_to_end(passes) -> dict:
    plain = [p for p in passes if not p["traced"]]
    values = {"setup_s": [p["setup_s"] for p in plain],
              "solve_s": [p["timings"]["solve_s"] for p in plain],
              "peak_rss_mb": [p["peak_rss_mb"] for p in plain]}
    return {name: summary(values[name], unit)
            for name, unit in END_TO_END.items()}


def per_layer(passes) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    out = {name: summary((p["layers"][name][0] for p in traced), unit)
           for name, (_, unit) in traced[0]["layers"].items()}
    overhead = (statistics.median(p["total_s"] for p in traced)
                - statistics.median(p["total_s"] for p in plain))
    out["trace.overhead_s"] = summary([overhead], "s")
    return out


def environment(seed: int, passes) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "git_commit": commit, "seed": seed,
            **passes[0]["env"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        passes = run_passes(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    except PassError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    metrics = per_layer(passes) if args.trace else end_to_end(passes)
    plain = [q for q in passes if not q["traced"]]
    mismatches = [m for q in passes for m in q["mismatches"]]
    attempted = sum(q["attempted"] for q in passes)
    failed = sum(q["failed"] for q in passes)
    env = environment(args.seed, passes)

    print("environment " + json.dumps(env))
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']} "
              f"(median of {m['n']} passes; max {m['max']!r})")
    timings = {key: [q["timings"][key] for q in plain]
               for key in plain[0]["timings"]}
    timings["total_s"] = [q["total_s"] for q in plain]
    for key, values in sorted(timings.items()):
        m = summary(values, "s")
        print(f"  {key} = {m['value']!r} s (median of {m['n']} passes; "
              f"max {m['max']!r})")
    print(f"  operations: {attempted} attempted, {failed} failed "
          f"(failed_frac {failed / attempted!r}); infeasible rows per pass "
          f"{passes[0]['infeasible_rows']}")
    for m in mismatches:
        print(f"MISMATCH {m}")
    for label, err in sorted({(k, v) for q in passes
                              for k, v in q["errors"].items()}):
        print(f"FAILED {label} raised {err}")

    result = {"correct": not mismatches, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                          for name, m in metrics.items()}}
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record, "w") as f:
        json.dump({"environment": env, "args": vars(args), "result": result,
                   "metrics": metrics, "passes": passes}, f, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
