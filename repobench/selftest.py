#!/usr/bin/env python3
"""Self-test of the repository benchmark at tiny size (about a minute).

    python3 repobench/selftest.py

For every workload in BENCHMARK.json it asserts that an untimed-size run
exits 0 with runs_failed == 0, emits every end-to-end metric (trace 0) and
every per-layer metric (trace 1) with the unit BENCHMARK.json names, and
that the RunResult digest repeats across two runs of one seed and changes
with the seed.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, trace):
    cmd = ["python3", os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    r = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = r.stdout.strip().splitlines()
    assert r.returncode == 0, "%s exited %d:\n%s%s" % (
        " ".join(cmd), r.returncode, r.stdout[-3000:], r.stderr[-3000:])
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, lines[-1]
    assert result["attempted"] >= 1, lines[-1]
    digest = next(m.group(1) for m in map(re.compile(r"^digest: (\w+)$").match,
                                          lines) if m)
    return result, digest


def check_metrics(result, wanted, workload, trace):
    got = result["metrics"]
    for m in wanted:
        assert m["name"] in got, "%s trace %d: %s missing" % (
            workload, trace, m["name"])
        assert got[m["name"]]["unit"] == m["unit"], "%s: unit %r != %r" % (
            m["name"], got[m["name"]]["unit"], m["unit"])
        assert isinstance(got[m["name"]]["value"], (int, float))
    extra = set(got) - {m["name"] for m in wanted}
    assert not extra, "%s trace %d: unlisted metrics %s" % (
        workload, trace, sorted(extra))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        first, d1 = run(name, 1, 0)
        check_metrics(first, bench["end_to_end"], name, 0)
        _, d1_again = run(name, 1, 0)
        _, d2 = run(name, 2, 0)
        assert d1 == d1_again, "%s: digest changed across runs" % name
        assert d1 != d2, "%s: digest did not change with the seed" % name
        traced, d1_traced = run(name, 1, 1)
        check_metrics(traced, bench["per_layer"], name, 1)
        assert d1_traced == d1, "%s: traced run digest differs" % name
        print("ok %s (digest %s)" % (name, d1), flush=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
