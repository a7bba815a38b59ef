// suvtm::check -- runtime correctness checking for the simulator.
//
// The Checker glues the history oracle (history.hpp) and the structural
// audits (audit.hpp) onto a live simulation:
//
//   - every memory access, transaction boundary and suspend/resume is
//     recorded into the oracle, which proves the run conflict-serializable
//     and replays it serially for final-state equality;
//   - every granted access is audited against the exact read/write sets of
//     every other isolation-holding transaction (the signatures the
//     conflict manager consults are supersets of those sets, so a granted
//     access that intersects an exact set means isolation actually broke);
//   - every `audit_period`-th commit, plus every abort and finalize(),
//     walks the coherence/signature/SUV structures for internal
//     consistency;
//   - finalize() additionally sweeps the whole backing-store image against
//     a snapshot taken at run start: words no committed access wrote must
//     be unchanged (a broken abort restore shows up here).
//
// Hot-path layout: the grant audit short-circuits on the candidate mask
// the conflict manager computed for this very access (see
// on_access_granted below). Only a grant whose line collides with another
// isolation holder's bit-sliced columns -- or any suspended transaction --
// pays the full per-core scan, which keeps the doomed/lazy case analysis
// in one (cold) place.
//
// Gating: the simulator's hook sites go through SUVTM_CHECK_HOOK, one
// test of a Checker pointer that the Simulator leaves null unless
// cfg.check.enabled is set. Tests also drive the Checker class directly.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/history.hpp"
#include "common/flat_hash.hpp"
#include "common/types.hpp"
#include "htm/htm_system.hpp"

/// Invoke `call` on the check::Checker* `ck` when checking is active.
/// `ck` is evaluated once; the call is skipped when it is nullptr.
#define SUVTM_CHECK_HOOK(ck, call) \
  do {                             \
    if (ck) (ck)->call;            \
  } while (0)

namespace suvtm::mem {
class MemorySystem;
}
namespace suvtm::vm {
class SuvVm;
}
namespace suvtm::sim {
struct SimConfig;
}

namespace suvtm::check {

/// Every build carries the hook sites; kept for callers that report it.
inline constexpr bool kHooksCompiled = true;

/// Thrown by Checker::finalize() when any violation was recorded.
class CheckFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Checker {
 public:
  /// `mem` and `htm` must outlive the Checker. The SUV backend (if the
  /// scheme has one, directly or behind DynTM) is discovered from `htm`.
  Checker(const sim::SimConfig& cfg, mem::MemorySystem& mem,
          htm::HtmSystem& htm);

  // ---- run lifecycle -------------------------------------------------------
  /// Snapshot the initial workload image (after workload build, before the
  /// first simulated event). Required for the untouched-word sweep.
  void on_run_start();
  /// Drain the oracle, replay, and run every audit. Throws CheckFailure
  /// listing the violations if any check failed.
  void finalize();

  // ---- simulator hooks (see thread_context.cpp / htm_system.cpp) -----------
  void on_begin(CoreId c, Cycle now) { oracle_.on_begin(c, now); }
  void on_frame_push(CoreId c) { oracle_.on_frame_push(c); }
  void on_frame_pop(CoreId c) { oracle_.on_frame_pop(c); }
  void on_frame_rollback(CoreId c) { oracle_.on_frame_rollback(c); }
  void on_read(CoreId c, bool in_tx, Addr word, std::uint64_t value,
               Cycle now) {
    oracle_.on_read(c, in_tx, word, value, now);
  }
  void on_write(CoreId c, bool in_tx, Addr word, std::uint64_t value,
                Cycle now) {
    oracle_.on_write(c, in_tx, word, value, now);
  }
  void on_commit_start(CoreId c, Cycle now) { oracle_.on_commit_start(c, now); }
  void on_commit_done(CoreId c, Cycle now, bool lazy);
  void on_abort_done(CoreId c);
  void on_suspend(CoreId c);
  void on_resume(CoreId c);

  /// The conflict manager granted `c` access to `line`. Audits the grant
  /// against every other isolation holder's exact sets.
  ///
  /// First filter: the candidate mask the conflict manager itself computed
  /// for this very access (the hook fires in the same event, right after
  /// check()). Exact sets are subsets of the per-core signatures, which
  /// are subsets of the bit-sliced columns, so a zero mask proves no live
  /// transaction's sets can contain the line. That chain of supersets is
  /// itself audited (audit_signatures validates signature vs exact set and
  /// column vs signature every sampling period and at finalize), so a
  /// filter bug cannot silently disarm the audit for a whole run -- and
  /// the history oracle's conflict-ordering proof stays fully independent
  /// of all of these structures.
  void on_access_granted(CoreId c, LineAddr line, bool exclusive,
                         bool requester_lazy) {
    const std::uint64_t self = 1ull << c;
    const auto& cm = htm_.conflicts();
    if ((cm.grant_candidates() & ~self) == 0 && !cm.grant_suspended_possible())
      return;
    grant_audit_slow(c, line, exclusive, requester_lazy);
  }

  // ---- results -------------------------------------------------------------
  const std::vector<std::string>& violations() const { return violations_; }
  HistoryOracle& oracle() { return oracle_; }
  std::uint64_t audits_run() const { return audits_run_; }

 private:
  void grant_audit_slow(CoreId c, LineAddr line, bool exclusive,
                        bool requester_lazy);
  void run_audits();
  void run_abort_audits(CoreId c);
  void violation(std::string msg);

  const sim::SimConfig& cfg_;
  mem::MemorySystem& mem_;
  htm::HtmSystem& htm_;
  vm::SuvVm* suv_ = nullptr;  // discovered; nullptr for non-SUV schemes

  HistoryOracle oracle_;
  /// Run-start image, kept as whole-page copies keyed by page id: the
  /// snapshot build is a memcpy per allocated page and the untouched-word
  /// sweep compares arrays instead of probing a per-word hash map.
  using SnapshotPage = std::array<std::uint64_t, kPageBytes / kWordBytes>;
  FlatMap<std::uint64_t, std::unique_ptr<SnapshotPage>> snapshot_;
  bool snapshot_taken_ = false;
  std::uint64_t commits_seen_ = 0;
  std::uint64_t audits_run_ = 0;
  std::vector<std::string> violations_;
};

}  // namespace suvtm::check
