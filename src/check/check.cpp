#include "check/check.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "check/audit.hpp"
#include "check/format.hpp"
#include "mem/memory_system.hpp"
#include "sim/config.hpp"
#include "sim/simulator.hpp"
#include "vm/suv_vm.hpp"

namespace suvtm::check {

namespace {

constexpr std::size_t kMaxViolations = 64;

}  // namespace

Checker::Checker(const sim::SimConfig& cfg, mem::MemorySystem& mem,
                 htm::HtmSystem& htm)
    : cfg_(cfg), mem_(mem), htm_(htm), suv_(sim::suv_backend(htm.vm())),
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
    if (!t || !t->active() || t->doomed) continue;
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
  // Only SUV redirects lines, and only lines its table holds an entry for;
  // every other line reads in place. So both sweeps below read a page's
  // backing words directly and resolve through the VM only the lines that
  // have an entry (debug_resolve preserves the offset within the line).
  FlatMap<std::uint64_t, std::uint64_t> entry_lines;  // page -> line bits
  if (suv_ != nullptr) {
    suv_->table().for_each_original_unordered([&](LineAddr original) {
      entry_lines[original / kLinesPerPage] |= 1ull
                                               << (original % kLinesPerPage);
    });
  }
  static constexpr SnapshotPage kZeroPage{};
  SnapshotPage resolved{};
  const auto final_words = [&](std::uint64_t page) -> const std::uint64_t* {
    const std::uint64_t* now = mem_.backing().page_words(page);
    if (now == nullptr) now = kZeroPage.data();
    const auto it = entry_lines.find(page);
    if (it == entry_lines.end()) return now;
    std::copy(now, now + resolved.size(), resolved.begin());
    for (std::uint64_t m = it->second; m != 0; m &= m - 1) {
      const auto line = static_cast<std::uint32_t>(std::countr_zero(m));
      const Addr lb = page * kPageBytes + line * kLineBytes;
      const Addr to = htm_.vm().debug_resolve(kNoCore, lb);
      for (std::uint32_t w = 0; w < kWordsPerLine; ++w) {
        resolved[line * kWordsPerLine + w] =
            mem_.load_word(to + w * kWordBytes);
      }
    }
    return resolved.data();
  };

  oracle_.finish();
  oracle_.check_final_image(
      [&](std::uint64_t page, const ShadowStore::Page&) {
        return final_words(page);
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
      const SnapshotPage& before =
          snap_it == snapshot_.end() ? kZeroPage : *snap_it->second;
      const std::uint64_t* now = final_words(page);
      const ShadowStore::Page* replayed = oracle_.replay_page(page);
      for (std::uint32_t k = 0; k < ShadowStore::kWords / 64; ++k) {
        std::uint64_t diff =
            ShadowStore::differing(now + k * 64, before.data() + k * 64);
        if (replayed != nullptr) diff &= ~replayed->written[k];
        for (; diff != 0 && swept_violations < 8; diff &= diff - 1) {
          ++swept_violations;
          const std::uint32_t i =
              k * 64 + static_cast<std::uint32_t>(std::countr_zero(diff));
          violation(format(
              "image: word %#llx was never committed-written yet changed "
              "from %#llx to %#llx",
              static_cast<unsigned long long>(base + i * kWordBytes),
              static_cast<unsigned long long>(before[i]),
              static_cast<unsigned long long>(now[i])));
        }
      }
    });
  }

  run_audits();

  throw_if_violated();
}

void Checker::check_overrun() {
  run_audits();
  throw_if_violated();
}

void Checker::throw_if_violated() const {
  if (violations_.empty()) return;
  std::string msg = format("correctness check failed (%zu violations):",
                           violations_.size());
  for (const std::string& v : violations_) {
    msg += "\n  ";
    msg += v;
  }
  throw CheckFailure(msg);
}

void Checker::violation(std::string msg) {
  if (violations_.size() < kMaxViolations) {
    violations_.push_back(std::move(msg));
  } else if (violations_.size() == kMaxViolations) {
    violations_.push_back("... further violations suppressed");
  }
}

}  // namespace suvtm::check
