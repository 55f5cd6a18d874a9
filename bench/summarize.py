"""Medians and spreads over a set of benchmark runs.

Usage: python3 bench/summarize.py SEED [SEED ...] > summary.json

Reads the run records that bench/run.py wrote to .bench_out/ for every
workload and the given seeds.  For each end-to-end metric it reports the
median over the runs and the spread: the distance between the first and
third quartile (statistics.quantiles(values, n=4)) as a share of the median.
For the per-layer metrics of the traced runs (every record with trace 1 of
a workload) it reports each run's values and whether the counts repeat.
"""
import json
import statistics
import sys

from run import OUT, WORKLOADS


def _load(pattern: str) -> list:
    return [json.loads(p.read_text()) for p in sorted(OUT.glob(pattern))]


def end_to_end(records) -> dict:
    out = {}
    for name in records[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in records]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[name] = {"unit": records[0]["result"]["metrics"][name]["unit"],
                     "median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median, "runs": len(values)}
    return out


def per_layer(records) -> dict:
    names = records[0]["result"]["metrics"]
    counts = [{n: m["value"] for n, m in r["result"]["metrics"].items()
               if m["unit"] == "count"} for r in records]
    return {"runs": len(records),
            "counts_repeat": all(c == counts[0] for c in counts),
            "values": {n: [r["result"]["metrics"][n]["value"]
                           for r in records] for n in names}}


def main(seeds) -> int:
    summary = {}
    for w in WORKLOADS:
        runs = [r for s in seeds for r in _load(f"{w}-seed{s}-trace0.json")]
        traced = _load(f"{w}-seed*-trace1.json")
        summary[w] = {
            "seeds": seeds,
            "environment": {k: v for k, v in runs[0]["environment"].items()
                            if k != "seed"},
            "correct": all(r["result"]["correct"] for r in runs + traced),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "end_to_end": end_to_end(runs) if len(runs) > 1 else {},
            "per_layer": per_layer(traced) if traced else {},
        }
    json.dump(summary, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]]))
