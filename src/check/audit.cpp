#include "check/audit.hpp"

#include <algorithm>
#include <bit>

#include "check/format.hpp"
#include "common/flat_hash.hpp"
#include "htm/htm_system.hpp"
#include "mem/memory_system.hpp"
#include "suv/pool.hpp"
#include "suv/redirect_table.hpp"
#include "vm/suv_vm.hpp"

namespace suvtm::check {

namespace {

const char* st_name(mem::CohState s) { return mem::coh_state_name(s); }

// Audit reports are capped (audit_all truncates), so hash-ordered
// containers are drained through a sorted copy before any message is
// emitted: which violations survive the cap must be a function of
// simulated state, never of FlatMap/FlatSet hash or capacity policy
// (suvlint: nondet-iteration).
std::vector<LineAddr> sorted_drain(const FlatSet<LineAddr>& hashed) {
  std::vector<LineAddr> out;
  out.reserve(hashed.size());
  // lint: allow(nondet-iteration): order laundered by the sort below
  for (LineAddr l : hashed) out.push_back(l);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<LineAddr> sorted_keys(const FlatMap<LineAddr, std::uint64_t>& hashed) {
  std::vector<LineAddr> out;
  out.reserve(hashed.size());
  // lint: allow(nondet-iteration): order laundered by the sort below
  for (const auto& kv : hashed) out.push_back(kv.first);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

std::vector<std::string> audit_coherence(const mem::MemorySystem& mem) {
  std::vector<std::string> out;
  const auto& dir = mem.directory();
  const std::uint32_t cores = mem.params().num_cores;

  // L1 -> directory/L2 direction.
  for (CoreId c = 0; c < cores; ++c) {
    const auto& spec = mem.speculative_lines(c);
    mem.l1(c).for_each([&](const mem::Cache::Line& ln) {
      const LineAddr l = ln.tag;
      const mem::DirEntry* e = dir.find(l);
      switch (ln.state) {
        case mem::CohState::kExclusive:
        case mem::CohState::kModified:
          if (!e || e->owner != c) {
            out.push_back(format(
                "coherence: core %u holds line %#llx in %s but the directory "
                "owner is %d",
                c, static_cast<unsigned long long>(l), st_name(ln.state),
                e ? static_cast<int>(e->owner) : -1));
          } else if (e->sharers != (1u << c)) {
            out.push_back(format(
                "coherence: line %#llx owned %s by core %u but sharer mask is "
                "%#x",
                static_cast<unsigned long long>(l), st_name(ln.state), c,
                e->sharers));
          }
          break;
        case mem::CohState::kShared:
          if (!e || ((e->sharers >> c) & 1u) == 0) {
            out.push_back(format(
                "coherence: core %u holds line %#llx Shared but its directory "
                "sharer bit is clear",
                c, static_cast<unsigned long long>(l)));
          } else if (e->owner != kNoCore) {
            out.push_back(format(
                "coherence: line %#llx is Shared at core %u while the "
                "directory names core %u exclusive owner",
                static_cast<unsigned long long>(l), c, e->owner));
          }
          break;
        case mem::CohState::kInvalid:
          break;
      }
      // Inclusion: the L2 backs every L1 line except Modified ones that were
      // materialized directly in the L1 (install_line never touches the L2).
      if ((ln.state == mem::CohState::kShared ||
           ln.state == mem::CohState::kExclusive) &&
          mem.l2().find(l) == nullptr) {
        out.push_back(format(
            "coherence: core %u holds line %#llx %s but the inclusive L2 has "
            "no copy",
            c, static_cast<unsigned long long>(l), st_name(ln.state)));
      }
      // Every line whose SM bit is set must be recorded in the per-core
      // speculative list (the flash commit/abort walks rely on it; the list
      // may hold stale extras, never miss a marked line).
      if (ln.speculative &&
          std::find(spec.begin(), spec.end(), l) == spec.end()) {
        out.push_back(format(
            "coherence: core %u line %#llx has its SM bit set but is missing "
            "from the speculative-line list",
            c, static_cast<unsigned long long>(l)));
      }
    });
  }

  // Directory -> L1 direction. Hash-order walk: the sorted-out return
  // below launders the visitation order before any report can see it.
  dir.for_each_unordered([&](LineAddr l, const mem::DirEntry& e) {
    if (e.owner != kNoCore) {
      if (e.owner >= cores) {
        out.push_back(format("coherence: line %#llx has out-of-range owner %u",
                             static_cast<unsigned long long>(l), e.owner));
        return;
      }
      const mem::Cache::Line* ln = mem.l1(e.owner).find(l);
      if (!ln || (ln->state != mem::CohState::kExclusive &&
                  ln->state != mem::CohState::kModified)) {
        out.push_back(format(
            "coherence: directory says core %u owns line %#llx but its L1 "
            "holds it %s",
            e.owner, static_cast<unsigned long long>(l),
            ln ? st_name(ln->state) : "not at all"));
      }
      if (e.sharers != (1u << e.owner)) {
        out.push_back(format(
            "coherence: line %#llx owned by core %u carries sharer mask %#x",
            static_cast<unsigned long long>(l), e.owner, e.sharers));
      }
      return;
    }
    for (CoreId c = 0; c < cores; ++c) {
      if (((e.sharers >> c) & 1u) == 0) continue;
      const mem::Cache::Line* ln = mem.l1(c).find(l);
      if (!ln || ln->state != mem::CohState::kShared) {
        out.push_back(format(
            "coherence: directory marks core %u a sharer of line %#llx but "
            "its L1 holds it %s",
            c, static_cast<unsigned long long>(l),
            ln ? st_name(ln->state) : "not at all"));
      }
    }
  });
  // Deterministic report: the L1 walks visit dense slot order but the
  // directory walk above is hash-ordered; sorting the collected messages
  // makes the emitted set and order a function of simulated state only.
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> audit_signatures(const htm::HtmSystem& htm) {
  std::vector<std::string> out;
  const auto check_sets = [&](const htm::Txn& t, const char* what) {
    for (LineAddr l : t.read_lines) {
      if (!t.read_sig.test(l)) {
        out.push_back(format(
            "signature: %s txn on core %u read line %#llx absent from its "
            "read signature",
            what, t.core, static_cast<unsigned long long>(l)));
      }
    }
    for (LineAddr l : t.write_lines) {
      if (!t.write_sig.test(l)) {
        out.push_back(format(
            "signature: %s txn on core %u wrote line %#llx absent from its "
            "write signature",
            what, t.core, static_cast<unsigned long long>(l)));
      }
    }
  };
  for (CoreId c = 0; c < htm.num_cores(); ++c) {
    const htm::Txn& t = htm.txn(c);
    if (!t.active()) continue;
    check_sets(t, "running");
    // Grant-filter chain: the conflict manager's bit-sliced columns must
    // stay a superset of every live transaction's sets -- check()'s fast
    // path and the checker's grant-audit filter both rest on "column miss
    // implies signature miss implies exact-set miss".
    const auto& cm = htm.conflicts();
    for (LineAddr l : t.read_lines) {
      if (!(cm.column_mask(l, false) >> c & 1)) {
        out.push_back(format(
            "signature: core %u's read line %#llx absent from the conflict "
            "manager's read columns",
            c, static_cast<unsigned long long>(l)));
      }
    }
    for (LineAddr l : t.write_lines) {
      if (!(cm.column_mask(l, true) >> c & 1)) {
        out.push_back(format(
            "signature: core %u's written line %#llx absent from the "
            "conflict manager's write columns",
            c, static_cast<unsigned long long>(l)));
      }
    }
  }
  htm.for_each_suspended([&](CoreId core, const htm::Txn& t) {
    check_sets(t, "suspended");
    // The summaries stand in for the parked transaction's isolation: a
    // missed line lets a conflicting access slip past the stall check.
    for (LineAddr l : t.read_lines) {
      if (!htm.suspended_read_summary().test(l)) {
        out.push_back(format(
            "signature: suspended txn from core %u read line %#llx absent "
            "from the suspended read summary",
            core, static_cast<unsigned long long>(l)));
      }
    }
    for (LineAddr l : t.write_lines) {
      if (!htm.suspended_write_summary().test(l)) {
        out.push_back(format(
            "signature: suspended txn from core %u wrote line %#llx absent "
            "from the suspended write summary",
            core, static_cast<unsigned long long>(l)));
      }
    }
  });
  return out;
}

std::vector<std::string> audit_suv(const vm::SuvVm& suv,
                                   const htm::HtmSystem& htm) {
  std::vector<std::string> out;
  const auto& table = suv.table();
  const std::uint32_t cores = htm.num_cores();

  // Per-core originals whose transient entries a descriptor lists: the
  // core's running transaction or a transaction suspended from it.
  std::vector<FlatSet<LineAddr>> owned(cores);
  const auto collect = [&](CoreId c, const htm::Txn& t) {
    for (LineAddr l : t.redirected) {
      if (!owned[c].insert(l)) {
        out.push_back(format(
            "suv: core %u's ownership lists name original %#llx twice", c,
            static_cast<unsigned long long>(l)));
      }
    }
  };
  for (CoreId c = 0; c < cores; ++c) collect(c, htm.txn(c));
  htm.for_each_suspended(collect);

  // Holder masks as the first-level tables describe them, built in one
  // pass over each core's table rather than 2 x cores probes per entry.
  FlatMap<LineAddr, std::uint64_t> held;
  for (CoreId c = 0; c < cores; ++c) {
    const std::uint64_t bit = 1ull << c;
    // lint: allow(nondet-iteration): OR-accumulation is order-free
    for (LineAddr l : table.pinned(c)) held[l] |= bit;
    // lint: allow(nondet-iteration): OR-accumulation is order-free
    for (const auto& kv : table.l1_cached(c)) held[kv.first] |= bit;
  }

  FlatSet<LineAddr> targets;
  std::vector<std::uint64_t> pool_lines(cores, 0);
  table.for_each_entry([&](const suv::RedirectEntry& e) {
    const auto orig = static_cast<unsigned long long>(e.original);
    switch (e.state) {
      case suv::EntryState::kInvalid:
        out.push_back(
            format("suv: stored entry for %#llx is in the invalid state",
                   orig));
        return;
      case suv::EntryState::kTxnRedirect:
      case suv::EntryState::kTxnUnredirect:
        if (e.owner >= cores) {
          out.push_back(format(
              "suv: transient entry for %#llx has no valid owner (%u)", orig,
              e.owner));
          return;
        }
        if (!owned[e.owner].contains(e.original)) {
          out.push_back(format(
              "suv: transient entry for %#llx owned by core %u is missing "
              "from that core's ownership lists (commit/abort will never "
              "flip it)",
              orig, e.owner));
        }
        break;
      case suv::EntryState::kGlobalRedirect:
        if (e.owner != kNoCore) {
          out.push_back(format(
              "suv: global entry for %#llx still names core %u owner", orig,
              e.owner));
        }
        break;
    }
    // Summary supersets: a missed membership lets a core skip the table
    // lookup and read the wrong version of the line.
    if (e.state == suv::EntryState::kTxnRedirect) {
      if (e.owner < cores && !table.summary(e.owner).test(e.original)) {
        out.push_back(format(
            "suv: owner core %u's summary misses its transient redirect for "
            "%#llx",
            e.owner, orig));
      }
    } else {
      // kTxnUnredirect and kGlobalRedirect divert OTHER cores to the target:
      // every core's summary must admit the line.
      for (CoreId c = 0; c < cores; ++c) {
        if (!table.summary(c).test(e.original)) {
          out.push_back(format(
              "suv: core %u's summary misses the %s entry for %#llx", c,
              suv::entry_state_name(e.state), orig));
        }
      }
    }
    // Holder mask: a deletion clears only the first-level tables the mask
    // names, so a missing bit would leave a dangling cached line behind.
    const auto held_it = held.find(e.original);
    const std::uint64_t holding = held_it == held.end() ? 0 : held_it->second;
    if (table.holders(e.original) != holding) {
      out.push_back(format(
          "suv: entry for %#llx has holder mask %#llx but the first-level "
          "tables holding it are %#llx",
          orig, static_cast<unsigned long long>(table.holders(e.original)),
          static_cast<unsigned long long>(holding)));
    }
    if (!suv::PreservedPool::in_pool_region(e.target)) {
      out.push_back(format(
          "suv: entry for %#llx targets %#llx outside the preserved pool",
          orig, static_cast<unsigned long long>(e.target)));
    } else {
      const CoreId pool_owner = suv::PreservedPool::owner_of(e.target);
      if (pool_owner < cores) ++pool_lines[pool_owner];
    }
    if (!targets.insert(e.target)) {
      out.push_back(format(
          "suv: pool line %#llx is the target of two live entries (two live "
          "versions of one line)",
          static_cast<unsigned long long>(e.target)));
    }
  });

  for (CoreId c = 0; c < cores; ++c) {
    // Pool refcount balance: every handed-out line is the target of exactly
    // one live entry, so in-use counts must match entry counts per region.
    if (suv.pool(c).lines_in_use() != pool_lines[c]) {
      out.push_back(format(
          "suv: core %u's pool reports %llu lines in use but %llu live "
          "entries target its region (leak or double release)",
          c, static_cast<unsigned long long>(suv.pool(c).lines_in_use()),
          static_cast<unsigned long long>(pool_lines[c])));
    }
    // Ownership lists must only name live transient entries of this core.
    for (LineAddr l : sorted_drain(owned[c])) {
      const suv::RedirectEntry* e = table.find(l);
      if (!e || !e->transient() || e->owner != c) {
        out.push_back(format(
            "suv: core %u's ownership lists name %#llx, whose entry is %s", c,
            static_cast<unsigned long long>(l),
            e ? suv::entry_state_name(e->state) : "gone"));
      }
    }
    // Hardware table levels cache only live entries; pinned slots hold this
    // core's transients and never double as plain cached slots.
    for (LineAddr l : sorted_drain(table.pinned(c))) {
      const suv::RedirectEntry* e = table.find(l);
      if (!e || !e->transient() || e->owner != c) {
        out.push_back(format(
            "suv: core %u pins %#llx, whose entry is %s", c,
            static_cast<unsigned long long>(l),
            e ? suv::entry_state_name(e->state) : "gone"));
      }
      if (table.l1_cached(c).contains(l)) {
        out.push_back(format(
            "suv: core %u holds %#llx both pinned and cached in its "
            "first-level table",
            c, static_cast<unsigned long long>(l)));
      }
    }
    for (LineAddr l : sorted_keys(table.l1_cached(c))) {
      if (!table.find(l)) {
        out.push_back(format(
            "suv: core %u's first-level table caches %#llx, which has no "
            "live entry",
            c, static_cast<unsigned long long>(l)));
      }
    }
  }
  table.for_each_l2_way([&](LineAddr l) {
    if (!table.find(l)) {
      out.push_back(format(
          "suv: second-level table caches %#llx, which has no live entry",
          static_cast<unsigned long long>(l)));
    }
  });
  return out;
}

std::vector<std::string> audit_parked(const htm::HtmSystem& htm) {
  std::vector<std::string> out;
  const auto& cm = htm.conflicts();
  for (std::uint64_t p = cm.parked_mask(); p != 0; p &= p - 1) {
    const CoreId c = static_cast<CoreId>(std::countr_zero(p));
    if (cm.park_holds(c, htm.txn_view())) continue;
    const auto& m = cm.park_memo(c);
    out.push_back(format(
        "parked: core %u's %s retry of line %#llx is parked on core %u's %s "
        "NACK, but re-checking it now decides differently",
        c, m.is_write ? "write" : "read",
        static_cast<unsigned long long>(m.line), m.holder,
        m.exact ? "exact" : "false"));
  }
  return out;
}

std::vector<std::string> audit_abort(const htm::HtmSystem& htm,
                                     const vm::SuvVm* suv, CoreId core) {
  std::vector<std::string> out;
  const htm::Txn& t = htm.txn(core);
  // The hook fires before the descriptor resets, so the sets still
  // describe the aborted attempt; a signature that lost one of them was
  // corrupted sometime during that attempt.
  for (LineAddr l : t.read_lines) {
    if (!t.read_sig.test(l)) {
      out.push_back(format(
          "signature: aborting txn on core %u read line %#llx absent from "
          "its read signature",
          core, static_cast<unsigned long long>(l)));
    }
  }
  for (LineAddr l : t.write_lines) {
    if (!t.write_sig.test(l)) {
      out.push_back(format(
          "signature: aborting txn on core %u wrote line %#llx absent from "
          "its write signature",
          core, static_cast<unsigned long long>(l)));
    }
  }
  if (suv != nullptr) {
    // The abort walk must have flipped or freed every transient entry the
    // attempt owned; its write set names exactly the lines it redirected.
    // (A parked transaction from this core cannot own any of these lines:
    // the suspended summaries would have stalled the aborted attempt's
    // writes to them.)
    const auto& table = suv->table();
    for (LineAddr l : t.write_lines) {
      const suv::RedirectEntry* e = table.find(l);
      if (e != nullptr &&
          (e->state == suv::EntryState::kTxnRedirect ||
           e->state == suv::EntryState::kTxnUnredirect) &&
          e->owner == core) {
        out.push_back(format(
            "suv: transient entry for %#llx still owned by core %u after "
            "its abort completed",
            static_cast<unsigned long long>(l), core));
      }
    }
  }
  return out;
}

std::vector<std::string> audit_all(const mem::MemorySystem& mem,
                                   const htm::HtmSystem& htm,
                                   const vm::SuvVm* suv) {
  std::vector<std::string> out = audit_coherence(mem);
  auto sigs = audit_signatures(htm);
  out.insert(out.end(), std::make_move_iterator(sigs.begin()),
             std::make_move_iterator(sigs.end()));
  if (suv) {
    auto sv = audit_suv(*suv, htm);
    out.insert(out.end(), std::make_move_iterator(sv.begin()),
               std::make_move_iterator(sv.end()));
  }
  auto parked = audit_parked(htm);
  out.insert(out.end(), std::make_move_iterator(parked.begin()),
             std::make_move_iterator(parked.end()));
  return out;
}

}  // namespace suvtm::check
