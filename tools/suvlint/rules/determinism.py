"""Determinism rules: guard the bit-identity contract.

Every published result rests on RunResult / obs trace bytes / metrics
being bit-identical across --jobs, --sim-threads and scheme-equivalence
runs (DESIGN.md sections 8, 11, 14). These rules make the hazards that
could silently break that contract visible at lint time:

  nondet-iteration    iterating a hash-ordered container (FlatMap /
                      FlatSet / std::unordered_*) in a result-affecting
                      directory. Hash order is deterministic for a fixed
                      insertion history but is NOT part of any contract:
                      a capacity-policy or hash-mix change silently
                      reorders everything downstream. Drain through a
                      sort, or annotate why order cannot reach a result.
  pointer-keyed-order  container keyed by a raw pointer: iteration and
                      comparison order then depend on allocator layout,
                      the canonical non-reproducibility bug.
  wallclock-entropy   wall-clock, libc randomness or environment reads
                      inside the simulated world. Entropy may only enter
                      through runner/ (host-side measurement) and
                      common/rng (seeded).
  uninit-member       uninitialized scalar member in a struct whose bytes
                      are hashed, memcmp'd or value-compared into
                      traces/results; padding-and-garbage bytes make
                      equality and hashing runs-dependent.
  float-accum-order   floating-point accumulation on the PDES-merge /
                      metrics-flatten paths, where reduction order is a
                      function of shard count unless pinned; FP addition
                      does not commute in the bits.
"""

from __future__ import annotations

import re

from engine import Rule

# Result-affecting trees: everything a simulated event, checker verdict,
# trace byte or metrics value flows through.
DET_DIRS = ("src/common", "src/sim", "src/htm", "src/suv", "src/mem",
            "src/obs", "src/check", "src/stamp")

_LAST_IDENT_RE = re.compile(
    r"([A-Za-z_]\w*)\s*(?:\([^()]*\)|\[[^\[\]]*\])?\s*$")
_BEGIN_RE = re.compile(r"\b([A-Za-z_]\w*)\.(?:begin|cbegin)\(\)")
_FOR_EACH_RE = re.compile(r"\b(?:std::)?for_each\s*\(")


class NondetIterationRule(Rule):
    id = "nondet-iteration"
    severity = "error"
    doc = ("iteration over a hash-ordered container in a result-affecting "
           "directory without an ordered-drain annotation")
    dirs = DET_DIRS

    def check(self, model, ctx):
        # Range-for over a known hash-ordered variable / member / accessor.
        for lp in model.loops:
            if not lp.is_range_for:
                continue
            m = _LAST_IDENT_RE.search(lp.range_text)
            if not m:
                continue
            why = ctx.nondet_why(model.path, m.group(1))
            if why:
                yield (lp.header_first_line,
                       f"range-for over `{m.group(1)}` ({why}) iterates in "
                       "hash order; sort into a canonical order before "
                       "anything result-affecting consumes it, or annotate "
                       "with // lint: allow(nondet-iteration): <why safe>",
                       None)
        # Iterator-based loops and std::for_each over the same symbols.
        for st in model.statements:
            is_loop_stmt = st.text.startswith(("for(", "while(")) or \
                " for(" in st.text or " while(" in st.text
            if not (is_loop_stmt or _FOR_EACH_RE.search(st.text)):
                continue
            for m in _BEGIN_RE.finditer(st.text):
                why = ctx.nondet_why(model.path, m.group(1))
                if why:
                    yield (st.line_of_offset(m.start()),
                           f"iteration via `{m.group(1)}.begin()` ({why}) "
                           "walks hash order; use a sorted drain or annotate "
                           "// lint: allow(nondet-iteration): <why safe>",
                           st)


_ORDERED_KEYED = re.compile(
    r"\b(FlatMap|FlatSet|std::(?:unordered_)?(?:map|set|multimap|multiset))"
    r"\s*<"
)


def _first_template_arg(text: str, open_idx: int) -> str:
    depth = 0
    start = open_idx + 1
    for i in range(open_idx, len(text)):
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return text[start:i].strip()
        elif c == "," and depth == 1:
            return text[start:i].strip()
    return ""


class PointerKeyedOrderRule(Rule):
    id = "pointer-keyed-order"
    severity = "error"
    doc = ("container keyed by a raw pointer: ordering/iteration follows "
           "allocator layout, not simulated state")
    dirs = DET_DIRS

    def check(self, model, ctx):
        for st in model.statements:
            for m in _ORDERED_KEYED.finditer(st.text):
                arg = _first_template_arg(st.text, m.end() - 1)
                if arg.endswith("*") and not arg.endswith("**"):
                    base = arg.rstrip("* ").strip()
                    if base in ("char", "const char", "void", "const void"):
                        continue  # string-literal / blob keys, not objects
                    yield (st.line_of_offset(m.start()),
                           f"{m.group(1)} keyed by raw pointer `{arg}`; key "
                           "by a stable id (CoreId, LineAddr, index) instead",
                           st)
                if arg.endswith("**"):
                    yield (st.line_of_offset(m.start()),
                           f"{m.group(1)} keyed by raw pointer `{arg}`; key "
                           "by a stable id instead",
                           st)


_ENTROPY = re.compile(
    r"\bstd::chrono\b|\bsteady_clock\b|\bsystem_clock\b|"
    r"\bhigh_resolution_clock\b|\bstd::random_device\b|\brandom_device\b|"
    r"\btime\(|\bclock\(|\brand\(|\bsrand\(|\bgetenv\(|\bgettimeofday\(|"
    r"\bclock_gettime\("
)


class WallclockEntropyRule(Rule):
    id = "wallclock-entropy"
    severity = "error"
    doc = ("wall-clock / randomness / environment read inside the simulated "
           "world (entropy may only enter via runner/ and common/rng)")
    dirs = DET_DIRS

    def check(self, model, ctx):
        for st in model.statements:
            for m in _ENTROPY.finditer(st.text):
                yield (st.line_of_offset(m.start()),
                       f"`{m.group(0).rstrip('(')}` injects host entropy "
                       "into a result-affecting path; thread it through "
                       "runner/ or common/rng, or annotate "
                       "// lint: allow(wallclock-entropy): <why inert>",
                       st)


_SCALAR_TYPES = {
    "bool", "char", "short", "int", "long", "unsigned", "signed",
    "float", "double", "size_t", "ptrdiff_t", "uintptr_t", "intptr_t",
    "uint8_t", "uint16_t", "uint32_t", "uint64_t",
    "int8_t", "int16_t", "int32_t", "int64_t",
    # Repo-local scalar aliases (common/types.hpp).
    "Cycle", "Addr", "LineAddr", "CoreId",
}


class UninitMemberRule(Rule):
    id = "uninit-member"
    severity = "warning"
    doc = ("scalar member without an initializer in a struct whose bytes "
           "are hashed, memcmp'd or value-compared into traces/results")
    dirs = DET_DIRS

    def check(self, model, ctx):
        for sd in model.structs:
            if sd.name not in ctx.serialized_structs:
                continue
            for st in sd.members:
                finding = _uninit_scalar_member(st)
                if finding:
                    name, type_name = finding
                    yield (st.first_line,
                           f"member `{name}` ({type_name}) of "
                           f"value-compared struct `{sd.name}` has no "
                           "initializer; default it so padding/garbage "
                           "never reaches a comparison or hash",
                           st)


def _uninit_scalar_member(st) -> tuple[str, str] | None:
    toks = [t.text for t in st.tokens]
    if toks and toks[-1] == ";":
        toks = toks[:-1]
    # Walk at template depth 0 only: the member's own type is the outer
    # spelling; template arguments (`std::pair<std::string, double>`) must
    # not leak into the scalar test.
    tmpl = 0
    idents: list[str] = []
    has_ptr = False
    for t in toks:
        if t == "<":
            tmpl += 1
        elif t == ">":
            tmpl = max(0, tmpl - 1)
        elif tmpl == 0:
            if t in ("=", "{"):
                return None  # initialized
            if t == "*":
                has_ptr = True
            elif re.match(r"[A-Za-z_]\w*$", t):
                idents.append(t)
    if len(idents) < 2:
        return None
    name = idents[-1]
    type_idents = idents[:-1]
    quals = {"const", "mutable", "volatile", "unsigned", "signed", "std"}
    core_candidates = [t for t in type_idents if t not in quals]
    type_core = core_candidates[-1] if core_candidates else type_idents[-1]
    if has_ptr or type_core in _SCALAR_TYPES:
        return name, " ".join(type_idents) + (" *" if has_ptr else "")
    return None


_FLOAT_ACCUM = re.compile(r"\b([A-Za-z_]\w*)\s*\+=")
_FLOAT_REDUCE = re.compile(r"\bstd::(?:accumulate|reduce)\(")
_FLOAT_LITERAL = re.compile(r"\b\d+\.\d*f?\b")
_RMW_SET_GET = re.compile(r"\.set\(.*\.get\(.*\+")


class FloatAccumOrderRule(Rule):
    id = "float-accum-order"
    severity = "warning"
    doc = ("floating-point accumulation on a merge/flatten path where "
           "reduction order can vary with shard count; FP addition does "
           "not commute in the bits")
    # The PDES completion-merge and metrics-flatten surfaces: the places a
    # per-shard or per-run reduction becomes one result value.
    files = ("src/obs/metrics.cpp", "src/obs/metrics.hpp",
             "src/sim/simulator.cpp", "src/sim/shard.cpp",
             "src/runner/cli.cpp", "src/runner/bench_report.cpp")

    def check(self, model, ctx):
        floats = ctx.float_symbols.get(model.path, {})
        for st in model.statements:
            for m in _FLOAT_ACCUM.finditer(st.text):
                if floats.get(m.group(1)):
                    yield (st.line_of_offset(m.start()),
                           f"`{m.group(1)} +=` accumulates "
                           f"{floats[m.group(1)]} on a merge "
                           "path; pin the reduction order (canonical "
                           "domain/submission order) or sum in integers, "
                           "then annotate "
                           "// lint: allow(float-accum-order): <order pin>",
                           st)
            for m in _FLOAT_REDUCE.finditer(st.text):
                if _FLOAT_LITERAL.search(st.text[m.end():]):
                    yield (st.line_of_offset(m.start()),
                           "floating-point std::accumulate/reduce on a "
                           "merge path; reduction order must be pinned "
                           "(annotate // lint: allow(float-accum-order))",
                           st)
            m = _RMW_SET_GET.search(st.text)
            if m:
                yield (st.line_of_offset(m.start()),
                       "read-modify-write accumulation of a double scalar "
                       "(.set(name, .get(name) + v)); bitwise result "
                       "depends on merge call order -- pin it to canonical "
                       "domain/submission order and annotate "
                       "// lint: allow(float-accum-order): <order pin>",
                       st)


DETERMINISM_RULES = (NondetIterationRule, PointerKeyedOrderRule,
                     WallclockEntropyRule, UninitMemberRule,
                     FloatAccumOrderRule)
