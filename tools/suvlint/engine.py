"""suvlint engine: rule registry, suppressions, reporting.

The engine walks the configured source trees once, builds a
lexer.FileModel per file plus a cross-file AnalysisContext (type symbol
tables feed the determinism rules), then runs every registered rule.

Suppressions
------------
`// lint: allow(<rule>)` suppresses a finding of that rule when placed

  * on the finding's line,
  * anywhere in the contiguous //-comment block directly above it (a
    multi-line rationale keeps working), or
  * -- for loop-scoped findings -- on any line of the enclosing loop's
    header or in the comment block directly above the header (this is the
    engine-level fix for the old scanner's silently-ignored header
    annotations).

A rationale after the closing paren (`// lint: allow(rule): why`) is the
house style; determinism-rule suppressions double as the ordered-drain /
canonical-order annotations DESIGN.md section 15 describes. There is no
baseline: a finding is fixed or annotated.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from lexer import FileModel, Statement, build_model

ALLOW_RE = re.compile(r"//\s*lint:\s*allow\(([a-z0-9-]+)\)")

SEVERITIES = ("error", "warning", "note")


def _comment_block_above(raw_lines: list[str], line_idx: int) -> list[str]:
    """0-based indices of the contiguous //-comment block directly above
    `line_idx` (plus the single line directly above even when it holds
    code, for trailing same-line-above annotations)."""
    out = [line_idx - 1]
    j = line_idx - 1
    while j >= 0 and raw_lines[j].lstrip().startswith("//"):
        out.append(j)
        j -= 1
    return [k for k in out if k >= 0]


@dataclass
class Finding:
    rule: str
    severity: str
    path: str   # repo-relative posix path
    line: int   # 1-based
    message: str
    suppressed: str = ""   # "" | "allow"

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class Rule:
    """Base class. Subclasses set `id`, `severity`, `doc` (one-line,
    surfaces in --list-rules and SARIF) and implement check()."""

    id = ""
    severity = "error"
    doc = ""
    # Repo-relative directory prefixes this rule scans ((), = everything).
    dirs: tuple[str, ...] = ()
    # Exact repo-relative files; when set, overrides `dirs`.
    files: tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        if self.files:
            return path in self.files
        if not self.dirs:
            return True
        return any(path.startswith(d.rstrip("/") + "/") for d in self.dirs)

    def check(self, model: FileModel, ctx: "AnalysisContext"):
        """Yield (line_index_0_based, message, context_statement|None)."""
        raise NotImplementedError


@dataclass
class AnalysisContext:
    """Cross-file facts the rules share, built in one pre-pass."""
    models: dict[str, FileModel] = field(default_factory=dict)
    # path -> identifier -> why it's order-unstable ("FlatMap",
    # "std::unordered_map", ...): variables and data members declared in
    # that file whose type iterates in hash order. Scoped per file -- plus
    # the sibling header/source of the same stem, via nondet_why() -- so a
    # member name in one file cannot flag an unrelated identifier elsewhere
    # (same rationale as float_symbols).
    nondet_symbols: dict[str, dict[str, str]] = field(default_factory=dict)
    # identifier -> why, for accessor *functions* returning (a reference
    # to) a hash-ordered container; call sites are cross-file by nature,
    # so function names stay global.
    nondet_accessors: dict[str, str] = field(default_factory=dict)
    # path -> identifier -> "float"/"double" for declared floating
    # accumulators (per file: accumulators are local names, and a global
    # table would let a `double n` in one file taint a `uint64_t n` in
    # another).
    float_symbols: dict[str, dict[str, str]] = field(default_factory=dict)
    # struct names whose bytes feed hashes, memcmp or trace/result
    # serialization (uninit-member scope).
    serialized_structs: set[str] = field(default_factory=set)

    def nondet_why(self, path: str, name: str) -> str | None:
        """Why `name` iterates in hash order when referenced from `path`,
        or None. Checks the file's own declarations, then its sibling
        header/source (same stem -- members live in foo.hpp, loops in
        foo.cpp), then the global accessor-function table."""
        why = self.nondet_symbols.get(path, {}).get(name)
        if why:
            return why
        stem = path.rsplit(".", 1)[0]
        for other, syms in self.nondet_symbols.items():
            if other != path and other.rsplit(".", 1)[0] == stem \
                    and name in syms:
                return syms[name]
        return self.nondet_accessors.get(name)


class Engine:
    def __init__(self, root: Path, rules: list[Rule], scan_dirs: list[str]):
        self.root = root
        self.rules = rules
        self.scan_dirs = scan_dirs

    # -- file collection ------------------------------------------------------

    def collect_files(self) -> list[Path]:
        out = []
        for d in self.scan_dirs:
            base = self.root / d
            if base.is_file():
                out.append(base)
                continue
            for p in sorted(base.rglob("*")):
                if p.suffix in (".hpp", ".cpp", ".h", ".cc"):
                    out.append(p)
        return out

    # -- analysis -------------------------------------------------------------

    def build_context(self, files: list[Path]) -> AnalysisContext:
        ctx = AnalysisContext()
        for f in files:
            rel = f.relative_to(self.root).as_posix()
            ctx.models[rel] = build_model(rel, f.read_text())
        for model in ctx.models.values():
            _harvest_symbols(model, ctx)
        return ctx

    def run(self) -> list[Finding]:
        files = self.collect_files()
        ctx = self.build_context(files)
        findings: list[Finding] = []
        for rel in sorted(ctx.models):
            model = ctx.models[rel]
            for rule in self.rules:
                if not rule.applies_to(rel):
                    continue
                for line_idx, message, _stmt in rule.check(model, ctx):
                    f = Finding(
                        rule=rule.id,
                        severity=rule.severity,
                        path=rel,
                        line=line_idx + 1,
                        message=message,
                    )
                    if self._allowed(model, rule.id, line_idx):
                        f.suppressed = "allow"
                    findings.append(f)
        return findings

    # -- suppressions ---------------------------------------------------------

    def _allowed(self, model: FileModel, rule_id: str, line_idx: int) -> bool:
        lines_to_check = {line_idx}
        lines_to_check.update(_comment_block_above(model.raw_lines, line_idx))
        # Loop-header placement: an allow on the header (or in the comment
        # block directly above it) of any loop whose body contains the
        # finding also suppresses it.
        for lp in model.loops_containing(line_idx):
            for ln in range(lp.header_first_line, lp.header_last_line + 1):
                lines_to_check.add(ln)
            lines_to_check.update(
                _comment_block_above(model.raw_lines, lp.header_first_line))
        for j in lines_to_check:
            if 0 <= j < len(model.raw_lines) and \
                    rule_id in ALLOW_RE.findall(model.raw_lines[j]):
                return True
        return False


# --- symbol harvesting -------------------------------------------------------

NONDET_TYPES = (
    "FlatMap", "FlatSet",
    "std::unordered_map", "std::unordered_set",
    "std::unordered_multimap", "std::unordered_multiset",
)

_NONDET_DECL_RE = re.compile(
    r"\b((?:std::)?(?:FlatMap|FlatSet|unordered_map|unordered_set|"
    r"unordered_multimap|unordered_multiset))\s*<"
)

_FLOAT_DECL_RE = re.compile(
    r"\b(double|float)\s+(?:const\s+)?([A-Za-z_]\w*)\s*(?:=|\{|;|,)"
)

_MEMCMP_SIZEOF_RE = re.compile(r"\bmemcmp\s*\(.*\bsizeof\(([A-Za-z_]\w*)\)")
_STD_HASH_RE = re.compile(r"\bstd::hash\s*<\s*([A-Za-z_:]\w*)\s*>")


def _template_close(text: str, open_idx: int) -> int:
    depth = 0
    for i in range(open_idx, len(text)):
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i
    return -1


def _harvest_symbols(model: FileModel, ctx: AnalysisContext) -> None:
    floats = ctx.float_symbols.setdefault(model.path, {})
    nondet = ctx.nondet_symbols.setdefault(model.path, {})
    for st in model.statements:
        text = st.text
        # Hash-ordered container declarations: record the declared name --
        # variable, data member, or accessor function returning (a reference
        # to) the container; iterating any of them iterates hash order.
        # `std::vector<FlatSet<...>> name` also records `name`: indexing it
        # yields a hash-ordered element.
        for m in _NONDET_DECL_RE.finditer(text):
            close = _template_close(text, m.end() - 1)
            if close < 0:
                continue
            rest = text[close + 1:]
            dm = re.match(r"\s*(?:const\s*)?&?\s*([A-Za-z_]\w*)", rest)
            if not dm:
                # Wrapped in an outer template (vector-of-FlatMap etc.):
                # skip the remaining `>`s and take the declared name.
                dm = re.match(r"\s*(?:>\s*)+(?:const\s*)?&?\s*([A-Za-z_]\w*)",
                              rest)
            if not dm:
                continue
            name = dm.group(1)
            if name in ("const", "return", "auto", "typename", "using"):
                continue
            type_name = m.group(1)
            if not type_name.startswith("std::") and \
                    type_name.startswith("unordered"):
                type_name = "std::" + type_name
            # `name(` is an accessor function (cross-file by nature);
            # anything else is a variable/member, scoped to this file.
            if rest[dm.end():].lstrip().startswith("("):
                ctx.nondet_accessors[name] = type_name
            else:
                nondet[name] = type_name
        for m in _FLOAT_DECL_RE.finditer(text):
            floats[m.group(2)] = m.group(1)
        for m in _MEMCMP_SIZEOF_RE.finditer(text):
            ctx.serialized_structs.add(m.group(1))
        for m in _STD_HASH_RE.finditer(text):
            ctx.serialized_structs.add(m.group(1).split("::")[-1])
    # A defaulted operator== marks a value-comparable struct: in this
    # codebase those are exactly the types that ride in RunResult / trace
    # comparisons and bit-identity checks.
    for sd in model.structs:
        for st in sd.body_statements:
            if "operator ==" in st.text and "= default" in st.text:
                ctx.serialized_structs.add(sd.name)
                break
