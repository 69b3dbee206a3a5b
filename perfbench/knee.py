#!/usr/bin/env python3
"""Finds the knee of each open-loop workload: the read rate it saturates at.

    python3 perfbench/knee.py

For knn-disk and ingest-mixed, runs the benchmark binary (built as run.py
builds it) at read rates rising by a factor of sqrt(2) from 50/s, seed 1,
5-second windows, untraced; ingest-mixed keeps its writer at its own rate.
Prints per rate the completed reads per second, the read p50 and p99, the
generator's send-lag p99 and the share of reads that waited for a lane.
The knee is the first rate at which the completed rate falls below 98 %
of the offered rate or the read p50 is more than twice its value at
50/s; the sweep stops two rates after it.
README.md ("Choosing the rates") records what this printed.
"""

import json
import math
import shutil
import subprocess
import sys

from run import build, build_dir

WORKLOADS = ("knn-disk", "ingest-mixed")
SEED = 1
SECONDS = 5
FIRST_RATE = 50.0
MAX_STEPS = 14


def run_at(binary, workload, rate):
    workdir = build_dir() / "work" / f"knee-{workload}-{rate:.0f}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        proc = subprocess.run(
            [str(binary), "--workload", workload, "--seed", str(SEED),
             "--seconds", str(SECONDS), "--trace", "0", "--workdir",
             str(workdir), "--rate", str(rate)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=170)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} at {rate:.0f}/s: exit {proc.returncode}")
    extra = json.loads(lines[-2].removeprefix("detail "))["extra"]
    result = json.loads(lines[-1])
    return {"p50": result["metrics"]["knn_p50_ms"]["value"],
            **{k: extra[k]["value"] for k in
               ("throughput_qps", "knn_p99_ms", "send_lag_p99_ms",
                "lane_wait_frac")}}


def main():
    binary = build()
    for workload in WORKLOADS:
        print(f"{workload}, seed {SEED}, {SECONDS} s per rate")
        print(f"{'offered/s':>10} {'done/s':>9} {'p50 ms':>8} {'p99 ms':>8} "
              f"{'lag p99 ms':>11} {'lane wait':>10}")
        base = None
        knee = None
        for step in range(MAX_STEPS):
            rate = FIRST_RATE * math.sqrt(2) ** step
            r = run_at(binary, workload, rate)
            base = base or r["p50"]
            saturated = (r["throughput_qps"] < 0.98 * rate
                         or r["p50"] > 2 * base)
            if saturated and knee is None:
                knee = rate
            print(f"{rate:>10.0f} {r['throughput_qps']:>9.1f} {r['p50']:>8.3f} "
                  f"{r['knn_p99_ms']:>8.3f} {r['send_lag_p99_ms']:>11.3f} "
                  f"{r['lane_wait_frac']:>10.3f}"
                  f"{'  <- knee' if knee == rate else ''}", flush=True)
            if knee is not None and rate >= knee * 2 - 1e-9:
                break
        print(f"{workload}: knee at {knee:.0f}/s" if knee else
              f"{workload}: no knee below {rate:.0f}/s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
