#!/usr/bin/env python3
"""Run one workload over several seeds and report each end-to-end metric's
median and spread (interquartile range as a share of the median) against
the bound BENCHMARK.json fixes for it.

    python3 repobench/spread.py --workload stamp-hc --seeds 1-10

A benchmark is steady when every spread except setup_s stays below a third
of its metric's bound. Prints one row per metric; exits 1 if any run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: BENCHMARK.json run_seconds")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for seed in seeds_of(args.seeds):
        r = subprocess.run(
            ["python3", os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], capture_output=True, text=True, cwd=ROOT)
        last = r.stdout.strip().splitlines()[-1] if r.stdout.strip() else ""
        if r.returncode != 0 or not last.startswith("{"):
            sys.stderr.write(r.stdout[-2000:] + r.stderr[-2000:])
            print("seed %d: run failed (exit %d)" % (seed, r.returncode))
            return 1
        res = json.loads(last)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (k, v["value"]) for k, v in sorted(
                res["metrics"].items()))), flush=True)
    print("%-16s %12s %8s %8s %s" % ("metric", "median", "spread", "bound",
                                     "verdict"))
    for m in bench["end_to_end"]:
        v = values.get(m["name"], [])
        if len(v) < 2:
            print("%-16s missing" % m["name"])
            continue
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        ok = m["name"] == "setup_s" or spread < m["bound"] / 3
        print("%-16s %12.5g %8.4f %8.3f %s" % (
            m["name"], med, spread, m["bound"], "ok" if ok else "UNSTEADY"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
