#!/usr/bin/env python3
"""clang-tidy gate: fail CI on any diagnostic in the strict surfaces.

    python3 tools/clang_tidy_gate.py <build-dir>

Runs clang-tidy over the strict-profile surfaces -- src/obs/*.cpp (picked
up by src/obs/.clang-tidy: bugprone-* and the init checks as errors) and
src/sim/shard.cpp (same check set passed explicitly, since the root
.clang-tidy keeps the repo-wide profile looser) -- and normalizes the
diagnostics to (path, check, message) keys. Any diagnostic fails the
gate: there is no baseline, new code fixes what it trips.

Needs a compile database (configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON).
When no clang-tidy binary is on PATH the gate skips with exit 0, so local
ctest runs on toolchain-only machines stay green; CI installs clang-tidy
and gets the real check.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# The explicit check set for files outside a strict-profile directory.
SHARD_CHECKS = (
    "bugprone-*,cppcoreguidelines-init-variables,"
    "cppcoreguidelines-pro-type-member-init,"
    "-bugprone-easily-swappable-parameters,-bugprone-narrowing-conversions"
)

# (repo-relative file, extra -checks= or None to use the on-disk config)
SURFACES = [
    ("src/obs/chrome_trace.cpp", None),
    ("src/obs/metrics.cpp", None),
    ("src/obs/recorder.cpp", None),
    ("src/obs/trace.cpp", None),
    ("src/sim/shard.cpp", SHARD_CHECKS),
]

_DIAG_RE = re.compile(
    r"^(?P<path>[^:\s][^:]*):(?P<line>\d+):\d+:\s+"
    r"(?P<sev>warning|error):\s+(?P<msg>.*?)\s+\[(?P<check>[\w.,-]+)\]\s*$")


def find_clang_tidy() -> str | None:
    for name in ("clang-tidy", "clang-tidy-20", "clang-tidy-19",
                 "clang-tidy-18", "clang-tidy-17", "clang-tidy-16",
                 "clang-tidy-15", "clang-tidy-14"):
        if shutil.which(name):
            return name
    return None


def run_surface(tidy: str, build_dir: Path, rel: str,
                checks: str | None) -> list[dict]:
    f = REPO / rel
    if not f.exists():
        return []
    cmd = [tidy, "-p", str(build_dir), "--quiet"]
    if checks:
        cmd.append(f"--checks={checks}")
    cmd.append(str(f))
    proc = subprocess.run(cmd, capture_output=True, text=True)
    out = []
    for line in proc.stdout.splitlines():
        m = _DIAG_RE.match(line)
        if not m:
            continue
        p = Path(m.group("path"))
        try:
            p = p.resolve().relative_to(REPO)
        except ValueError:
            continue  # diagnostic in a system/third-party header
        rel_p = p.as_posix()
        if not rel_p.startswith("src/"):
            continue
        out.append({"path": rel_p, "check": m.group("check"),
                    "message": m.group("msg")})
    return out


def main(argv: list[str]) -> int:
    if not argv or argv[0].startswith("-"):
        sys.stderr.write(__doc__)
        return 2
    build_dir = Path(argv[0])

    tidy = find_clang_tidy()
    if tidy is None:
        print("clang-tidy-gate: no clang-tidy on PATH, skipping (CI "
              "installs it; local toolchain-only runs stay green)")
        return 0
    if not (build_dir / "compile_commands.json").exists():
        sys.stderr.write(
            f"clang-tidy-gate: {build_dir}/compile_commands.json not found; "
            "configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON\n")
        return 2

    diags: list[dict] = []
    for rel, checks in SURFACES:
        diags.extend(run_surface(tidy, build_dir, rel, checks))

    # Dedup (header diagnostics repeat once per including TU).
    found = sorted({(d["path"], d["check"], d["message"]) for d in diags})
    for p, c, m in found:
        print(f"{p}: [{c}] {m}")
    if found:
        print(f"clang-tidy-gate: {len(found)} diagnostic(s)")
        return 1
    print("clang-tidy-gate: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
