#include "check/check.hpp"

#include <algorithm>
#include <utility>

#include "check/audit.hpp"
#include "check/format.hpp"
#include "mem/memory_system.hpp"
#include "sim/config.hpp"
#include "vm/dyntm.hpp"
#include "vm/suv_vm.hpp"

namespace suvtm::check {

namespace {

constexpr std::size_t kMaxViolations = 64;

vm::SuvVm* find_suv_backend(htm::HtmSystem& htm) {
  htm::VersionManager* v = &htm.vm();
  if (auto* s = dynamic_cast<vm::SuvVm*>(v)) return s;
  if (auto* d = dynamic_cast<vm::DynTm*>(v)) {
    return dynamic_cast<vm::SuvVm*>(&d->inner());
  }
  return nullptr;
}

}  // namespace

Checker::Checker(const sim::SimConfig& cfg, mem::MemorySystem& mem,
                 htm::HtmSystem& htm)
    : cfg_(cfg), mem_(mem), htm_(htm), suv_(find_suv_backend(htm)),
      oracle_(htm.num_cores(), cfg.check.reference) {}

void Checker::on_run_start() {
  // Copy every workload page wholesale (pool pages hold SUV-internal
  // versions, not workload state; they are exempt from the sweep). Pages
  // allocated after this point read as zero at run start, which is exactly
  // what a snapshot miss yields in the sweep.
  snapshot_.clear();
  mem_.backing().for_each_page_id([&](std::uint64_t page) {
    if (page * kPageBytes >= kRedirectPoolBase) return;
    const std::uint64_t* words = mem_.backing().page_words(page);
    auto copy = std::make_unique<SnapshotPage>();
    std::copy(words, words + copy->size(), copy->begin());
    snapshot_.emplace(page, std::move(copy));
  });
  snapshot_taken_ = true;
}

void Checker::on_commit_done(CoreId c, Cycle now, bool lazy) {
  oracle_.on_commit_done(c, now, lazy);
  ++commits_seen_;
  if (cfg_.check.audit_period != 0 &&
      commits_seen_ % cfg_.check.audit_period == 0) {
    run_audits();
  }
}

void Checker::on_abort_done(CoreId c) {
  oracle_.on_abort_done(c);
  run_abort_audits(c);
}

void Checker::on_suspend(CoreId c) {
  // Fires before HtmSystem resets the suspended transaction's core-local
  // state. (The suspended-summary signatures take over conflict filtering,
  // and on_access_granted audits suspended footprints with the full scan.)
  oracle_.on_suspend(c);
}

void Checker::on_resume(CoreId c) {
  // Fires after HtmSystem restored the parked transaction into the core.
  oracle_.on_resume(c);
}

void Checker::grant_audit_slow(CoreId c, LineAddr line, bool exclusive,
                               bool requester_lazy) {
  // The conflict manager filters on signatures, which are supersets of the
  // exact sets below: a granted access that intersects an exact set means
  // isolation itself broke, not just the filter. Doomed transactions are
  // skipped -- committer-wins and lazy-reader invalidation doom the victim
  // and then legitimately proceed through its footprint while it drains.
  auto& txns = htm_.txn_view();
  for (CoreId o = 0; o < txns.size(); ++o) {
    if (o == c) continue;
    const htm::Txn* t = txns[o];
    if (!t || !t->holds_isolation() || t->doomed) continue;
    const char* why = nullptr;
    if (t->lazy && t->state == htm::TxnState::kRunning) {
      // Buffered writes confer no coherence permission; only an exclusive
      // request on its write set is an eager conflict.
      if (exclusive && t->write_lines.contains(line)) why = "write set";
    } else if (requester_lazy) {
      if (t->write_lines.contains(line)) why = "write set";
    } else if (exclusive) {
      if (t->write_lines.contains(line)) why = "write set";
      else if (t->read_lines.contains(line)) why = "read set";
    } else {
      if (t->write_lines.contains(line)) why = "write set";
    }
    if (why) {
      violation(format(
          "isolation: core %u was granted %s access to line %#llx inside the "
          "%s of core %u's %s transaction",
          c, exclusive ? "exclusive" : "shared",
          static_cast<unsigned long long>(line), why, o,
          t->lazy ? "lazy" : "eager"));
    }
  }
  htm_.for_each_suspended([&](CoreId from, const htm::Txn& s) {
    const bool hit = s.write_lines.contains(line) ||
                     (exclusive && s.read_lines.contains(line));
    if (hit) {
      violation(format(
          "isolation: core %u was granted %s access to line %#llx held by "
          "the suspended transaction from core %u",
          c, exclusive ? "exclusive" : "shared",
          static_cast<unsigned long long>(line), from));
    }
  });
}

void Checker::run_audits() {
  ++audits_run_;
  for (auto& msg : audit_all(mem_, htm_, suv_)) violation(std::move(msg));
}

void Checker::run_abort_audits(CoreId c) {
  // Aborts are where version-management bugs surface, so every abort gets
  // audited -- scoped to the aborting attempt (O(footprint)). The global
  // structure walks stay on the sampled commit path and finalize(): per
  // abort their full table/directory sweeps dominated the whole run.
  ++audits_run_;
  for (auto& msg : audit_abort(htm_, suv_, c)) violation(std::move(msg));
}

void Checker::finalize() {
  // Redirection is line-granular (debug_resolve preserves the offset
  // within the line), so both sweeps resolve once per line and read the
  // line's words directly.
  oracle_.finalize(
      [this, last_line = ~LineAddr{0}, delta = Addr{0}](Addr a) mutable {
        const LineAddr line = line_of(a);
        if (line != last_line) {
          const Addr lb = line << kLineShift;
          delta = htm_.vm().debug_resolve(kNoCore, lb) - lb;
          last_line = line;
        }
        return mem_.load_word(a + delta);
      });
  for (const std::string& v : oracle_.violations()) violation(v);

  // Untouched-word sweep: every workload word no committed or
  // non-transactional write touched must still hold its run-start value (a
  // leaked speculative version or a broken abort restore shows up here;
  // committed words are covered by the oracle's replay comparison).
  if (snapshot_taken_) {
    std::size_t swept_violations = 0;
    mem_.backing().for_each_page_id([&](std::uint64_t page) {
      const Addr base = page * kPageBytes;
      if (base >= kRedirectPoolBase) return;
      const auto snap_it = snapshot_.find(page);
      const SnapshotPage* snap =
          snap_it == snapshot_.end() ? nullptr : snap_it->second.get();
      const ShadowStore::Page* replayed = oracle_.replay_page(page);
      for (Addr lb = base; lb < base + kPageBytes; lb += kLineBytes) {
        const Addr resolved = htm_.vm().debug_resolve(kNoCore, lb);
        for (std::uint32_t w = 0; w < kWordsPerLine; ++w) {
          const Addr a = lb + w * kWordBytes;
          const auto i =
              static_cast<std::uint32_t>((a & (kPageBytes - 1)) / kWordBytes);
          if (replayed != nullptr &&
              (replayed->written[i >> 6] >> (i & 63) & 1) != 0) {
            continue;
          }
          const std::uint64_t expect = snap == nullptr ? 0 : (*snap)[i];
          const std::uint64_t got = mem_.load_word(resolved + w * kWordBytes);
          if (got != expect && swept_violations < 8) {
            ++swept_violations;
            violation(format(
                "image: word %#llx was never committed-written yet changed "
                "from %#llx to %#llx",
                static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(expect),
                static_cast<unsigned long long>(got)));
          }
        }
      }
    });
  }

  run_audits();

  if (!violations_.empty()) {
    std::string msg = format("correctness check failed (%zu violations):",
                             violations_.size());
    for (const std::string& v : violations_) {
      msg += "\n  ";
      msg += v;
    }
    throw CheckFailure(msg);
  }
}

void Checker::violation(std::string msg) {
  if (violations_.size() < kMaxViolations) {
    violations_.push_back(std::move(msg));
  } else if (violations_.size() == kMaxViolations) {
    violations_.push_back("... further violations suppressed");
  }
}

}  // namespace suvtm::check
