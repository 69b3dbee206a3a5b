#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json.

    python3 perfbench/spread.py [--json OUT]

Runs run.py once per workload of BENCHMARK.json and seed 1..10 (--trace 0,
run_seconds long), then prints, per workload and metric, the median of the
runs and the spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median. A spread should stay
below a third of the metric's bound for the benchmark to resolve a change
of that size; rows at or above it are marked. Exits 1 when a run fails or
reports a wrong answer, or when any spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--json", help="write every run's metrics here")
    args = ap.parse_args()

    bad = False
    runs = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs[workload] = []
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
                bad = True
                continue
            result = json.loads(lines[-1])
            bad |= not result["correct"]
            runs[workload].append(
                {k: v["value"] for k, v in result["metrics"].items()})
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v:.4g}" for k, v in runs[workload][-1].items()),
                  file=sys.stderr, flush=True)

    print(f"{'workload':<14} {'metric':<22} {'median':>12} {'spread':>8} "
          f"{'bound':>6}")
    for workload, values in runs.items():
        if len(values) < 2:
            continue
        for m in spec["end_to_end"]:
            xs = [v[m["name"]] for v in values]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            mark = "" if spread < m["bound"] / 3 else "  <-- >= bound/3"
            if spread > m["bound"]:
                bad = True
                mark = "  <-- over bound"
            print(f"{workload:<14} {m['name']:<22} {med:>12.5g} "
                  f"{spread:>8.4f} {m['bound']:>6}{mark}")
    if args.json:
        Path(args.json).write_text(json.dumps(runs, indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
