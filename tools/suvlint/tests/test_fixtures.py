"""Negative-fixture suite: every rule has one triggering fixture and one
annotated (or corrected) twin.

Each `<rule>_bad.cpp` must produce at least one active finding of exactly
that rule and no active finding of any other rule; each `<rule>_ok.cpp`
must be fully clean. Fixtures are placed at a path the rule actually
scans (file-scoped rules like growth-in-loop only apply to specific
files), one fixture per temp tree so harvested symbols never leak
between cases.

Run: python3 tools/suvlint/tests/test_fixtures.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from engine import Engine  # noqa: E402
from rules import ALL_RULES, make_rules  # noqa: E402

FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"

# rule id -> destination path inside the temp tree (a path the rule scans).
DEST = {
    "node-container": "src/sim/fixture.cpp",
    "std-function": "src/sim/fixture.cpp",
    "alloc-in-loop": "src/sim/fixture.cpp",
    "growth-in-loop": "src/sim/scheduler.cpp",
    "sync-in-drain": "src/sim/shard.cpp",
    "nondet-iteration": "src/sim/fixture.cpp",
    "pointer-keyed-order": "src/sim/fixture.cpp",
    "wallclock-entropy": "src/sim/fixture.cpp",
    "uninit-member": "src/sim/fixture.cpp",
    "float-accum-order": "src/obs/metrics.cpp",
}


def run_fixture(fixture: Path, dest: str):
    with tempfile.TemporaryDirectory() as td:
        root = Path(td)
        target = root / dest
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(fixture.read_text())
        eng = Engine(root, make_rules(None), ["src"])
        return [f for f in eng.run() if not f.suppressed]


def main() -> int:
    rule_ids = [cls.id for cls in ALL_RULES]
    missing_dest = [r for r in rule_ids if r not in DEST]
    assert not missing_dest, f"no fixture destination for: {missing_dest}"

    failed = 0
    for rule_id in rule_ids:
        slug = rule_id.replace("-", "_")
        bad = FIXTURE_DIR / f"{slug}_bad.cpp"
        ok = FIXTURE_DIR / f"{slug}_ok.cpp"
        for p in (bad, ok):
            if not p.exists():
                failed += 1
                print(f"FAIL {rule_id}: missing fixture {p.name}")
        if not (bad.exists() and ok.exists()):
            continue

        active = run_fixture(bad, DEST[rule_id])
        hits = [f for f in active if f.rule == rule_id]
        others = [f for f in active if f.rule != rule_id]
        if not hits:
            failed += 1
            print(f"FAIL {rule_id}: {bad.name} did not trigger the rule")
        elif others:
            failed += 1
            print(f"FAIL {rule_id}: {bad.name} cross-triggered "
                  f"{sorted({f.rule for f in others})}")
        else:
            print(f"PASS {rule_id}: {bad.name} -> {len(hits)} finding(s)")

        active = run_fixture(ok, DEST[rule_id])
        if active:
            failed += 1
            for f in active:
                print(f"  {f.render()}")
            print(f"FAIL {rule_id}: {ok.name} is not clean")
        else:
            print(f"PASS {rule_id}: {ok.name} clean")

    total = 2 * len(rule_ids)
    print(f"{total - failed}/{total} fixture checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
