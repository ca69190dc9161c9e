#!/usr/bin/env python3
"""Compare two sets of benchmark records, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds run records (the *-trace0.json / *-trace1.json files
that run.py writes to perfbench/results/), for instance one directory per
commit.  For every workload and metric it prints both medians over runs,
their quartiles and the change against the bound in BENCHMARK.json.
Records whose environment fingerprints differ (Python, numpy, numba,
CHARDEG_JIT, nproc, CPU model) are refused: kernel dispatch, and with it
speed, depends on them.  Pair runs by seed: the seed changes how much
randomized work a pass does.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(directory: Path) -> list[dict]:
    records = [json.loads(p.read_text()) for p in sorted(directory.glob("*-trace[01].json"))]
    if not records:
        raise SystemExit(f"no run records in {directory}")
    return records


def spread(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    prints = {json.dumps(r["fingerprint"], sort_keys=True) for r in base + new}
    if len(prints) > 1:
        print("refusing to compare: environment fingerprints differ:", file=sys.stderr)
        for p in sorted(prints):
            print("  " + p, file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    keys = sorted({(r["workload"], r["trace"]) for r in base} & {(r["workload"], r["trace"]) for r in new})
    worse = 0
    for workload, trace in keys:
        a_runs = [r for r in base if (r["workload"], r["trace"]) == (workload, trace)]
        b_runs = [r for r in new if (r["workload"], r["trace"]) == (workload, trace)]
        failed = sum(r["failed"] for r in b_runs), sum(r["attempted"] for r in b_runs)
        print(f"== {workload} ({'traced' if trace else 'untraced'}; runs {len(a_runs)} vs {len(b_runs)};"
              f" seeds {sorted(r['seed'] for r in a_runs)} vs {sorted(r['seed'] for r in b_runs)};"
              f" new failures {failed[0]}/{failed[1]})")
        for name in a_runs[0]["metrics"]:
            a = spread([r["metrics"][name] for r in a_runs])
            b = spread([r["metrics"][name] for r in b_runs if name in r["metrics"]])
            change = (b[1] - a[1]) / a[1] if a[1] else float("nan")
            verdict = ""
            if bounds.get(name) is not None:
                regress = change if better[name] == "lower" else -change
                verdict = "WORSE than bound" if regress > bounds[name] else "within bound"
                worse += regress > bounds[name]
            print(f"  {name:40s} {a[1]:12.6g} [{a[0]:.6g}, {a[2]:.6g}]  ->  {b[1]:12.6g}"
                  f" [{b[0]:.6g}, {b[2]:.6g}]  {change:+8.2%}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
