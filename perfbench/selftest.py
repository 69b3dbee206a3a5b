#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/selftest.py

Checks, with 1-second runs on seed 11 of every workload of BENCHMARK.json:
  * two traced runs on one seed give identical deterministic counts
    (core.pages_per_query, core.wasted_page_frac);
  * every run answers correctly, and its metric names match
    [A-Za-z0-9_.-]+ and, with their units, the end_to_end (--trace 0) or
    per_layer (--trace 1) list of BENCHMARK.json;
  * run.py fails without printing a result in a directory that holds only
    BENCHMARK.json and this directory (nothing to build from).
Exits 0 when all hold.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
SEED = 11
DETERMINISTIC = ("core.pages_per_query", "core.wasted_page_frac")


def run(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / HERE.name / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace)], cwd=cwd, capture_output=True, text=True)
    return proc


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in workloads:
        counts = []
        for trace in (0, 1, 1):
            proc = run(workload, SEED, trace)
            lines = proc.stdout.strip().splitlines()
            expect(proc.returncode == 0 and bool(lines),
                   f"{workload} trace {trace}: exit 0 with a result")
            if not lines:
                print(proc.stderr[-3000:], file=sys.stderr)
                continue
            result = json.loads(lines[-1])
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] > 0,
                   f"{workload} trace {trace}: every answer correct")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(all(NAME.match(k) for k in got),
                   f"{workload} trace {trace}: metric names well formed")
            expect(got == declared[trace],
                   f"{workload} trace {trace}: metrics and units as declared")
            if trace == 1:
                counts.append(tuple(result["metrics"][k]["value"]
                                    for k in DETERMINISTIC))
        if len(counts) == 2:
            expect(counts[0] == counts[1],
                   f"{workload}: deterministic counts repeat exactly {counts}")

    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name)
        proc = run(workloads[0], SEED, 0, cwd=bare)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "bare directory: non-zero exit and no result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
