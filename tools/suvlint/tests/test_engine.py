"""Engine-level tests for suvlint.

These pin the two behaviours the old regex scanner got wrong (multi-line
statements slipping through; `// lint: allow()` above a brace-opening
loop header silently ignored) plus the load-bearing engine mechanics:
comment/string stripping and suppression placement.

Run: python3 tools/suvlint/tests/test_engine.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from engine import Engine  # noqa: E402
from rules import make_rules  # noqa: E402


def run_on(source: str, dest: str = "src/sim/fixture.cpp",
           only: set[str] | None = None,
           extra: dict[str, str] | None = None):
    """Run the engine over a temp tree (one file, plus `extra`
    path -> text siblings); return (findings, engine)."""
    with tempfile.TemporaryDirectory() as td:
        root = Path(td)
        for rel, text in {dest: source, **(extra or {})}.items():
            f = root / rel
            f.parent.mkdir(parents=True, exist_ok=True)
            f.write_text(text)
        eng = Engine(root, make_rules(only), ["src"])
        return eng.run(), eng


def active(findings):
    return [f for f in findings if not f.suppressed]


def rules_hit(findings):
    return sorted({f.rule for f in active(findings)})


# --- the two legacy scanner gaps ---------------------------------------------

def test_multiline_statement_matches():
    # Old scanner: line-based regexes missed a call split across lines.
    src = (
        "void f() {\n"
        "  std::function\n"
        "      <void(int)> cb;\n"
        "  for (int i = 0; i < 4; ++i) {\n"
        "    auto p = std::make_unique\n"
        "        <int>(i);\n"
        "  }\n"
        "}\n"
    )
    findings, _ = run_on(src)
    assert "std-function" in rules_hit(findings), rules_hit(findings)
    assert "alloc-in-loop" in rules_hit(findings), rules_hit(findings)
    # The allocation finding lands inside the loop body, where the
    # statement starts, not on the closing line.
    alloc = [f for f in findings if f.rule == "alloc-in-loop"][0]
    assert alloc.line == 5, alloc.line


def test_allow_above_loop_header_suppresses_body_finding():
    # Old scanner: annotating the loop header did nothing because the
    # finding line was inside the body.
    src = (
        "void f() {\n"
        "  // lint: allow(alloc-in-loop): pool warm-up, bounded\n"
        "  for (int i = 0; i < 4; ++i) {\n"
        "    auto p = std::make_unique<int>(i);\n"
        "  }\n"
        "}\n"
    )
    findings, _ = run_on(src, only={"alloc-in-loop"})
    assert not active(findings), [f.render() for f in active(findings)]
    assert any(f.suppressed == "allow" for f in findings)


def test_allow_on_multiline_loop_header_line():
    src = (
        "void f() {\n"
        "  for (int i = 0;\n"
        "       i < 4; ++i) {  // lint: allow(alloc-in-loop)\n"
        "    auto p = std::make_unique<int>(i);\n"
        "  }\n"
        "}\n"
    )
    findings, _ = run_on(src, only={"alloc-in-loop"})
    assert not active(findings), [f.render() for f in active(findings)]


# --- suppression placement ---------------------------------------------------

def test_allow_in_comment_block_above():
    # A multi-line rationale keeps the allow() effective even when it sits
    # several comment lines above the finding.
    src = (
        "void f() {\n"
        "  // lint: allow(std-function): stored once at setup, never\n"
        "  // invoked per simulated event; see DESIGN.md section 15\n"
        "  std::function<void()> cb;\n"
        "}\n"
    )
    findings, _ = run_on(src, only={"std-function"})
    assert not active(findings), [f.render() for f in active(findings)]


def test_allow_wrong_rule_does_not_suppress():
    src = (
        "void f() {\n"
        "  // lint: allow(alloc-in-loop)\n"
        "  std::function<void()> cb;\n"
        "}\n"
    )
    findings, _ = run_on(src, only={"std-function"})
    assert len(active(findings)) == 1


def test_allow_separated_by_code_does_not_suppress():
    # The comment block must be contiguous and directly above.
    src = (
        "void f() {\n"
        "  // lint: allow(std-function)\n"
        "  int x = 0;\n"
        "  std::function<void()> cb;\n"
        "}\n"
    )
    findings, _ = run_on(src, only={"std-function"})
    assert len(active(findings)) == 1


# --- lexing ------------------------------------------------------------------

def test_comments_and_strings_do_not_match():
    src = (
        "void f() {\n"
        "  // std::function<void()> in a comment\n"
        "  /* std::map<int,int> in a block comment */\n"
        "  const char* s = \"std::function<void()>\";\n"
        "  const char* r = R\"(std::map<int,int>)\";\n"
        "}\n"
    )
    findings, _ = run_on(src, only={"std-function", "node-container"})
    assert not findings, [f.render() for f in findings]


def test_braceless_range_for_is_flagged():
    src = (
        "#include \"common/flat_hash.hpp\"\n"
        "FlatMap<int, int> m_;\n"
        "int f() {\n"
        "  int n = 0;\n"
        "  for (const auto& kv : m_) n += kv.second;\n"
        "  return n;\n"
        "}\n"
    )
    findings, _ = run_on(src, only={"nondet-iteration"})
    assert len(active(findings)) == 1, [f.render() for f in findings]
    assert active(findings)[0].line == 5


def test_iterator_loop_is_flagged():
    src = (
        "#include \"common/flat_hash.hpp\"\n"
        "FlatMap<int, int> m_;\n"
        "int f() {\n"
        "  int n = 0;\n"
        "  for (auto it = m_.begin(); it != m_.end(); ++it) n += it->second;\n"
        "  return n;\n"
        "}\n"
    )
    findings, _ = run_on(src, only={"nondet-iteration"})
    assert len(active(findings)) == 1, [f.render() for f in findings]


def test_sorted_drain_pattern_with_allow_is_clean():
    src = (
        "#include \"common/flat_hash.hpp\"\n"
        "FlatMap<int, int> m_;\n"
        "void f(std::vector<int>& keys) {\n"
        "  // lint: allow(nondet-iteration): order laundered by the sort below\n"
        "  for (const auto& kv : m_) keys.push_back(kv.first);\n"
        "  std::sort(keys.begin(), keys.end());\n"
        "}\n"
    )
    findings, _ = run_on(src, only={"nondet-iteration"})
    assert not active(findings), [f.render() for f in active(findings)]


def test_string_line_continuation_keeps_line_numbers():
    # A backslash-newline inside a string literal must not swallow the
    # newline, or every later line number shifts and allow() lookup breaks.
    from lexer import strip_comments_and_strings
    src = 'const char* s = "ab\\\ncd";\nint x;\n'
    clean = strip_comments_and_strings(src)
    assert clean.count("\n") == src.count("\n"), clean
    # End-to-end: the finding after the continuation still lands on its
    # own line, so the allow() directly above it suppresses.
    src = (
        'const char* banner =\n'
        '    "line one \\\n'
        '     line two";\n'
        "void f() {\n"
        "  // lint: allow(std-function): stored once\n"
        "  std::function<void()> cb;\n"
        "}\n"
    )
    findings, _ = run_on(src, only={"std-function"})
    assert not active(findings), [f.render() for f in active(findings)]


# --- nondet symbol scoping ---------------------------------------------------

_OTHER_FILE_MEMBER = (
    "#include \"common/flat_hash.hpp\"\n"
    "struct Table {\n"
    "  FlatMap<int, int> entries_;\n"
    "};\n"
)


def test_nondet_member_in_unrelated_file_does_not_taint():
    # A FlatMap member named `entries_` elsewhere must not flag an
    # unrelated std::vector that happens to share the name.
    src = (
        "#include <vector>\n"
        "std::vector<int> entries_;\n"
        "int f() {\n"
        "  int n = 0;\n"
        "  for (int v : entries_) n += v;\n"
        "  return n;\n"
        "}\n"
    )
    findings, _ = run_on(src, only={"nondet-iteration"},
                         extra={"src/htm/table.hpp": _OTHER_FILE_MEMBER})
    assert not findings, [f.render() for f in findings]


def test_nondet_member_in_sibling_header_is_flagged():
    # Members live in foo.hpp, the iterating code in foo.cpp: the sibling
    # header's symbols stay visible.
    src = (
        "#include \"fixture.hpp\"\n"
        "int f(Table& t) {\n"
        "  int n = 0;\n"
        "  for (const auto& kv : t.entries_) n += kv.second;\n"
        "  return n;\n"
        "}\n"
    )
    findings, _ = run_on(src, only={"nondet-iteration"},
                         extra={"src/sim/fixture.hpp": _OTHER_FILE_MEMBER})
    assert len(active(findings)) == 1, [f.render() for f in findings]


def test_nondet_accessor_is_flagged_cross_file():
    # Accessor functions returning hash-ordered containers are global:
    # the call site can be in any file.
    accessor = (
        "#include \"common/flat_hash.hpp\"\n"
        "struct Table {\n"
        "  const FlatMap<int, int>& entries() const { return entries_; }\n"
        "  FlatMap<int, int> entries_;\n"
        "};\n"
    )
    src = (
        "#include \"htm/table.hpp\"\n"
        "int f(Table& t) {\n"
        "  int n = 0;\n"
        "  for (const auto& kv : t.entries()) n += kv.second;\n"
        "  return n;\n"
        "}\n"
    )
    findings, _ = run_on(src, only={"nondet-iteration"},
                         extra={"src/htm/table.hpp": accessor})
    assert len(active(findings)) == 1, [f.render() for f in findings]


# --- scoping -----------------------------------------------------------------

def test_rule_scoping_by_dir_and_file():
    src = "std::function<void()> cb;\n"
    # runner/ is outside every hot/determinism dir.
    findings, _ = run_on(src, dest="src/runner/fixture.cpp",
                         only={"std-function"})
    assert not findings
    # growth-in-loop only applies to the scheduler files.
    grow = (
        "void f(std::vector<int>& v) {\n"
        "  for (int i = 0; i < 4; ++i) {\n"
        "    v.push_back(i);\n"
        "  }\n"
        "}\n"
    )
    findings, _ = run_on(grow, dest="src/sim/fixture.cpp",
                         only={"growth-in-loop"})
    assert not findings
    findings, _ = run_on(grow, dest="src/sim/scheduler.cpp",
                         only={"growth-in-loop"})
    assert len(active(findings)) == 1


def main() -> int:
    tests = [(n, f) for n, f in sorted(globals().items())
             if n.startswith("test_") and callable(f)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except AssertionError as e:
            failed += 1
            print(f"FAIL {name}: {e}")
    print(f"{len(tests) - failed}/{len(tests)} engine tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
