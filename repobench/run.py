#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

    python3 repobench/run.py --workload stamp-hc --seed 1 --seconds 25 --trace 0

Run from the repository root. The first call configures and builds the
simulator library plus the repobench binary into .bench_build/ (or $CARGO_TARGET_DIR,
taken relative to the repository root); later calls rebuild incrementally.
Build output goes to .bench_build/build.log and stderr, so the last line of
stdout is always the binary's JSON result. Extra flags: --size tiny shrinks
the matrices for the self-test (selftest.py).
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def run_logged(cmd, log):
    log.write("$ " + " ".join(cmd) + "\n")
    log.flush()
    return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode


def build(out):
    """Configure (once) and build; returns the repobench binary's path."""
    os.makedirs(out, exist_ok=True)
    cmake_dir = os.path.join(out, "repobench")
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out, "build.lock"), "w") as lock, \
            open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            cfg = ["cmake", "-S", HERE, "-B", cmake_dir,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cfg += ["-G", "Ninja"]
            if run_logged(cfg, log) != 0:
                shutil.rmtree(cmake_dir, ignore_errors=True)
                return None
        if run_logged(["cmake", "--build", cmake_dir, "-j", jobs], log) != 0:
            return None
    return os.path.join(cmake_dir, "repobench")


def git_commit():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    out = build_dir()
    binary = build(out)
    if binary is None:
        log = os.path.join(out, "build.log")
        with open(log) as f:
            sys.stderr.write("".join(f.readlines()[-30:]))
        sys.stderr.write("repobench: build failed (log: %s)\n" % log)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--size", args.size, "--commit", git_commit()]
    if args.trace == "1":
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
