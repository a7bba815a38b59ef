"""Hot-path rules, ported from the old regex scanner onto the
statement engine. Semantics are the old scanner's, with its two known
gaps fixed by the engine itself:

  * matching runs over normalized logical statements, so a call split
    across physical lines (`std::make_unique\n    <Foo>(...)`) no longer
    slips through;
  * `// lint: allow(<rule>)` placed on (or directly above) the header of
    the enclosing loop suppresses loop-scoped findings in its body.
"""

from __future__ import annotations

import re

from engine import Rule

# src/check joined the hot set when its recording path went arena-based:
# the SUVTM_CHECK_HOOK sites sit on every simulated memory access, so the
# same no-node-containers / no-allocation-in-loop / no-std::function
# discipline applies there as in the simulator core.
HOT_DIRS = ("src/mem", "src/sim", "src/htm", "src/suv", "src/check")

_NODE_CONTAINERS = re.compile(
    r"\bstd::(map|set|unordered_map|unordered_set|list|forward_list|"
    r"multimap|multiset)\s*<"
)
_STD_FUNCTION = re.compile(r"\bstd::function\s*<")
# `new(buf) T` is placement new (normalization puts no space before `(`);
# a real allocation names the allocated type directly after `new`.
_ALLOCATION = re.compile(
    r"\bnew\s+[A-Za-z_:<]|\bstd::make_unique<|\bstd::make_shared<|"
    r"\bmalloc\(|\bcalloc\("
)
_GROWTH = re.compile(r"\.(push_back|emplace_back|resize|reserve)\(")
_SYNC = re.compile(
    r"\bstd::(mutex|shared_mutex|recursive_mutex|atomic\b|atomic<|"
    r"condition_variable|lock_guard|unique_lock|shared_lock|scoped_lock|"
    r"counting_semaphore|binary_semaphore|latch)|"
    r"\.(lock|try_lock|unlock|wait|notify_one|notify_all|"
    r"arrive_and_wait|arrive_and_drop|fetch_add|fetch_sub|fetch_or|"
    r"fetch_and|fetch_xor|compare_exchange_weak|compare_exchange_strong)\("
)


class _StatementRegexRule(Rule):
    """Flag every match of `pattern` in a statement's normalized text,
    optionally only when the match sits inside a loop body."""

    pattern: re.Pattern = None
    in_loop_only = False

    def check(self, model, ctx):
        for st in model.statements:
            for m in self.pattern.finditer(st.text):
                line = st.line_of_offset(m.start())
                if self.in_loop_only and not model.in_loop_body(line):
                    continue
                yield line, self.message(m), st

    def message(self, m: re.Match) -> str:
        raise NotImplementedError


class NodeContainerRule(_StatementRegexRule):
    id = "node-container"
    severity = "error"
    doc = ("node-based std container on a hot path "
           "(use common/flat_hash.hpp)")
    dirs = HOT_DIRS
    pattern = _NODE_CONTAINERS

    def message(self, m):
        return self.doc


class StdFunctionRule(_StatementRegexRule):
    id = "std-function"
    severity = "error"
    doc = ("std::function on a hot path "
           "(use a template parameter or a sim::Wakeable)")
    dirs = HOT_DIRS
    pattern = _STD_FUNCTION

    def message(self, m):
        return self.doc


class AllocInLoopRule(_StatementRegexRule):
    id = "alloc-in-loop"
    severity = "error"
    doc = "allocation inside a loop on a hot path"
    dirs = HOT_DIRS
    pattern = _ALLOCATION
    in_loop_only = True

    def message(self, m):
        return self.doc


class GrowthInLoopRule(_StatementRegexRule):
    id = "growth-in-loop"
    severity = "error"
    doc = ("container growth inside a scheduler loop (must be amortized "
           "and annotated: // lint: allow(growth-in-loop))")
    files = ("src/sim/scheduler.hpp", "src/sim/scheduler.cpp")
    pattern = _GROWTH
    in_loop_only = True

    def message(self, m):
        return self.doc


class SyncInDrainRule(_StatementRegexRule):
    id = "sync-in-drain"
    severity = "error"
    doc = ("lock/atomic inside a PDES window or drain loop (the design is "
           "share-nothing; annotate the one intended barrier with "
           "// lint: allow(sync-in-drain))")
    files = ("src/sim/shard.hpp", "src/sim/shard.cpp")
    pattern = _SYNC
    in_loop_only = True

    def message(self, m):
        return self.doc


HOTPATH_RULES = (NodeContainerRule, StdFunctionRule, AllocInLoopRule,
                 GrowthInLoopRule, SyncInDrainRule)
