#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload oltp|adhoc|analytic --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/ (and with it the engine under src/) into .bench_build/; later
runs only rebuild what changed. The benchmark's report goes to standard
output; its last line is one JSON object with correct/attempted/failed and
the metrics BENCHMARK.json lists (end_to_end with --trace 0, per_layer with
--trace 1). With --trace 1 the spans are written to
.bench_build/trace/<workload>-<seed>.jsonl.

Exit codes: 0 ok, 3 a correctness check failed, 2 anything else (bad
arguments, build failure, a result that does not match BENCHMARK.json).
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("oltp", "adhoc", "analytic")
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return BUILD / "perfbench"


def expected_metrics(trace):
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds within 1..600")

    expected = expected_metrics(args.trace)
    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(BUILD / "trace" /
                                   f"{args.workload}-{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if proc.returncode not in (0, 3) or result is None:
        sys.stdout.write(proc.stdout)
        fail(f"perfbench exited with {proc.returncode} and no result")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] or (
            proc.returncode == 0 and got != expected):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("result does not match the metrics BENCHMARK.json lists")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
