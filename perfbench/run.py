#!/usr/bin/env python3
"""Builds and runs one benchmark workload (see README.md in this directory).

    python3 perfbench/run.py --workload knn-disk --seed 7 --seconds 10 --trace 0
                             [--out results.json]

Run from the root of a checkout. The library and the benchmark binary are
built from source into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) on first use. A readable report goes to stderr;
the last line of stdout is the result object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
--out also writes the result with its provenance (git describe, host,
I/O backend) to a file, and refuses to do so from a dirty or unknown tree.

Exit codes: 0 all answers correct; 1 a wrong answer or a broken registry
identity (the result line is still printed); 2 the build, the set-up or
the arguments failed (no result line).
"""

import argparse
import json
import os
import platform
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configures once, then rebuilds incrementally. Returns the binary."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"no library sources next to {HERE.name}/ to build")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "sqp_perfbench",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "sqp_perfbench"


def git_describe():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty",
             "--tags"], check=True, capture_output=True, text=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown (git failed)"


def provenance(args):
    with open("/proc/uptime") as f:
        uptime_s = float(f.read().split()[0])
    return {
        "git_describe": git_describe(),
        "nproc": os.cpu_count(),
        "kernel": f"{platform.system()} {platform.release()}",
        "host_uptime_s": uptime_s,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def check_result(result):
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError(f"result keys {sorted(result)}")
    for name, m in result["metrics"].items():
        if not NAME.match(name) or sorted(m) != ["unit", "value"]:
            raise ValueError(f"malformed metric {name!r}: {m!r}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", help="also write result + provenance here")
    args = ap.parse_args()

    prov = provenance(args)
    if args.out and ("dirty" in prov["git_describe"]
                     or prov["git_describe"].startswith("unknown")):
        log(f"refusing to write {args.out}: tree is {prov['git_describe']}")
        return 2
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    workdir = build_dir() / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    for k, v in prov.items():
        log(f"  {k:<34} {v}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        log(f"run failed with exit code {proc.returncode}")
        return 2
    detail = json.loads(lines[-2].removeprefix("detail "))
    result = json.loads(lines[-1])
    try:
        check_result(result)
    except ValueError as e:
        log(f"malformed result: {e}")
        return 2

    if args.out:
        with open(args.out, "w") as f:
            json.dump({"provenance": prov, **detail, "result": result}, f,
                      indent=1)
            f.write("\n")
        log(f"wrote {args.out}")
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
