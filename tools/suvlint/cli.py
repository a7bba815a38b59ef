"""suvlint command line.

    python3 tools/suvlint [options] [dir-or-file ...]

Default invocation (no arguments) scans `src/` from the repository root
with every rule and exits 1 on any finding without a `// lint: allow()`
annotation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from engine import Engine
from rules import ALL_RULES, make_rules
from sarif import write_sarif

VERSION = "1.0"


def find_repo_root(start: Path) -> Path:
    p = start.resolve()
    for cand in (p, *p.parents):
        if (cand / "src").is_dir() and (cand / "tools").is_dir():
            return cand
    sys.stderr.write("suvlint: could not locate the repository root "
                     "(no src/ + tools/ above the tool)\n")
    sys.exit(2)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="suvlint",
        description="Determinism-aware static analysis for the SUV-TM "
                    "simulator (DESIGN.md section 15).")
    ap.add_argument("paths", nargs="*",
                    help="directories/files to scan, relative to the repo "
                         "root (default: src)")
    ap.add_argument("--rules",
                    help="comma-separated rule ids to run (default: all)")
    ap.add_argument("--list-rules", action="store_true",
                    help="print the rule catalogue and exit")
    ap.add_argument("--sarif", metavar="FILE",
                    help="also write a SARIF 2.1.0 report")
    ap.add_argument("--show-suppressed", action="store_true",
                    help="also print allow()-suppressed findings")
    args = ap.parse_args(argv)

    if args.list_rules:
        for cls in ALL_RULES:
            scope = ",".join(cls.files or cls.dirs or ("(all)",))
            print(f"{cls.id:22} {cls.severity:8} {cls.doc}")
            print(f"{'':22} scope: {scope}")
        return 0

    root = find_repo_root(Path(__file__).parent)

    only = None
    if args.rules:
        only = {r.strip() for r in args.rules.split(",") if r.strip()}
        known = {c.id for c in ALL_RULES}
        unknown = only - known
        if unknown:
            sys.stderr.write(
                f"suvlint: unknown rule(s): {', '.join(sorted(unknown))}\n")
            return 2
    rules = make_rules(only)

    scan = args.paths if args.paths else ["src"]
    findings = Engine(root, rules, scan).run()

    active = [f for f in findings if not f.suppressed]
    suppressed = [f for f in findings if f.suppressed]

    for f in active:
        print(f.render())
    if args.show_suppressed:
        for f in suppressed:
            print(f"{f.render()}  (suppressed: {f.suppressed})")

    if args.sarif:
        write_sarif(args.sarif, findings, rules, VERSION)

    n_err = sum(1 for f in active if f.severity == "error")
    n_warn = len(active) - n_err
    if active:
        print(f"suvlint: {n_err} error(s), {n_warn} warning(s) "
              f"({len(suppressed)} suppressed)")
        return 1
    print(f"suvlint: clean ({len(suppressed)} suppressed, "
          f"{len(rules)} rules)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
