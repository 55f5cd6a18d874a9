"""One pass of a benchmark workload, in a fresh process.

Usage: python3 bench/child.py WORKLOAD SEED TRACE SPAWN_TIME [SPANS_FILE]

Imports proxygap from the checkout's ``src/``, builds the workload's inputs
from the seed, runs them, checks the outputs, and prints one JSON line.
SPAWN_TIME is the parent's ``time.monotonic()`` (a system-wide clock on
Linux) just before it started this process, so set-up time includes
interpreter start-up and imports.  With TRACE 1 the pass runs under a
`tracer.Tracer` and its spans are written to SPANS_FILE.
"""
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(work, seed: int, tracer, spawn_time: float, modules) -> dict:
    """Build, solve and check one pass; `tracer` is None for an untraced
    pass, which then leaves every binding of the program untouched."""
    if tracer is not None:
        import tracer as tr
        for owner, attr, name, hook in tr.targets(*modules):
            tracer.wrap(owner, attr, name, hook)
    try:
        rss0 = _maxrss_mb()
        inputs = work.build(seed)
        build_rss_mb = _maxrss_mb() - rss0
        t_setup = time.monotonic()
        out = work.solve(inputs)
        t_done = time.monotonic()
    finally:
        if tracer is not None:
            tracer.restore()
    mismatches = work.check(out)
    attempted, failed, infeasible = work.operations(out)
    result = {"setup_s": t_setup - spawn_time, "timings": out.timings(),
              "peak_rss_mb": _maxrss_mb(), "mismatches": mismatches,
              "errors": {str(k): v for k, v in out.errors.items()},
              "attempted": attempted,
              "failed": attempted if mismatches else failed,
              "infeasible_rows": infeasible}
    if tracer is not None:
        import tracer as tr
        result["layers"] = tr.layer_metrics(
            tracer.spans, t_done - spawn_time, out.e_min(), out.grid_rows(),
            infeasible, build_rss_mb)
    return result


def _environment(np, scipy) -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas_build": {k: {f: deps[k].get(f) for f in
                               ("name", "version", "openblas configuration")}
                           for k in ("blas", "lapack") if k in deps}}


def main(argv) -> int:
    name, seed, trace, spawn_time = argv[0], int(argv[1]), argv[2] == "1", \
        float(argv[3])
    sys.path.insert(0, str(ROOT / "src"))
    import proxygap
    found = [Path(p).resolve() for p in proxygap.__path__]
    if ROOT / "src" / "proxygap" not in found:
        print(f"proxygap imported from {found}, not from this checkout's "
              "src/", file=sys.stderr)
        return 2
    import numpy as np
    import scipy
    from proxygap import dual, limit, models, witness
    import tracer as tr
    import workloads

    tracer = tr.Tracer() if trace else None
    result = run_pass(workloads.WORKLOADS[name], seed, tracer, spawn_time,
                      (np, dual, limit, models, witness))
    if tracer is not None:
        tracer.write(argv[4])
    result["env"] = _environment(np, scipy)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
