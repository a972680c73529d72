#!/usr/bin/env python3
"""Steadiness tool: runs each workload N times, each with another seed, and
prints for every metric its median, quartiles and relative spread
(Q3 - Q1) / median, next to the bound BENCHMARK.json gives it.

    python3 perfbench/steady.py [--workloads oltp,adhoc,analytic] [--runs 10]
        [--seed-start 1] [--seconds 10] [--trace 0|1] [--out summary.json]

Run from the root of a checkout. A metric whose spread is not below its
bound cannot gate a change; one above a third of its bound is flagged.
Exits 1 if any run failed or any spread exceeds its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    last = proc.stdout.rstrip("\n").split("\n")[-1]
    try:
        result = json.loads(last)
    except ValueError:
        result = None
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="oltp,adhoc,analytic")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-start", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--out")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    ok = True
    summary = {}
    for workload in args.workloads.split(","):
        values = {}
        shares = set()
        for i in range(args.runs):
            seed = args.seed_start + i
            code, result = run_once(workload, seed, seconds, args.trace)
            if code != 0 or result is None or not result["correct"]:
                print(f"{workload} seed {seed}: run failed (exit {code})")
                ok = False
                continue
            shares.add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
                flush=True)
        print(f"\n{workload}: {args.runs} runs, failed share(s) "
              f"{sorted(shares)}")
        print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        summary[workload] = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name) if args.trace == 0 else None
            flag = ""
            if bound is not None:
                if spread > bound:
                    flag = "OVER"
                    ok = False
                elif spread > bound / 3:
                    flag = ">1/3"
            print(f"{name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {bound if bound is not None else '':>6} "
                  f"{flag}")
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                       "spread": spread, "values": vals}
        print()
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
