// Per-core hardware transaction descriptor.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/flat_hash.hpp"
#include "common/types.hpp"
#include "htm/abort_cause.hpp"
#include "htm/signature.hpp"

namespace suvtm::htm {

/// Transaction lifecycle. A transaction holds isolation (its signatures stay
/// visible to conflict checks) in kRunning, kCommitting AND kAborting -- the
/// latter two are exactly the paper's merge and repair pathology windows.
enum class TxnState : std::uint8_t { kIdle, kRunning, kCommitting, kAborting };

const char* txn_state_name(TxnState s);

/// Closed-nesting frame (LogTM-Nested style): each nesting level records
/// the scheme's rollback position at its entry, so an inner abort can
/// partially roll back.
struct NestFrame {
  std::size_t vm_mark;  // VersionManager::nest_mark at frame entry
};

struct Txn {
  Txn(CoreId core, std::uint32_t sig_bits, std::uint32_t sig_hashes)
      : core(core), read_sig(sig_bits, sig_hashes), write_sig(sig_bits, sig_hashes) {}

  CoreId core;
  TxnState state = TxnState::kIdle;

  /// Begin timestamp of the FIRST attempt; kept across retries so the stall
  /// policy's abort-youngest rule guarantees progress (LogTM rule).
  std::uint64_t timestamp = 0;
  bool has_timestamp = false;

  /// Static transaction-site id, set by the workload; DynTM's selector is
  /// keyed on it.
  std::uint32_t site = 0;

  /// One frame per open nested level; empty at the outermost level.
  std::vector<NestFrame> frames;

  Signature read_sig;
  Signature write_sig;

  /// Exact sets, kept alongside the signatures for statistics (false-conflict
  /// measurement), per-line version-management bookkeeping and the resume
  /// re-note; HtmSystem::note_read/note_write grow each with its signature.
  /// Small-buffer-optimized and insertion-ordered (Table IV: typical
  /// footprints are tens of lines); touched on every transactional access.
  LineSet read_lines;
  LineSet write_lines;

  /// Word-granularity undo log: (address, old value), in program order.
  /// LogTM-SE/FasTM functional rollback; SUV leaves it empty.
  std::vector<std::pair<Addr, std::uint64_t>> undo;
  FlatSet<Addr> logged_words;

  /// Lazy-mode (DynTM) redo buffer: word address -> buffered new value.
  FlatMap<Addr, std::uint64_t> redo;

  /// SUV: originals whose transient redirect entries this attempt owns, in
  /// creation order -- the entries its commit or abort flash-flips. Kept on
  /// the descriptor so suspension carries it with the rest of the attempt.
  std::vector<LineAddr> redirected;

  bool doomed = false;        // marked for abort by the conflict manager
  AbortCause doom_cause = AbortCause::kNone;  // why; first doom wins
  bool overflowed = false;    // speculative state left the L1 this attempt
  std::uint32_t commit_waits = 0;  // lazy-commit retries spent on eager holders
  bool lazy = false;          // DynTM execution mode for this attempt
  bool degenerated = false;   // FasTM fell back to LogTM-SE behaviour
  std::size_t degen_undo_mark = 0;  // undo length when degeneration began
  std::uint64_t attempts = 0; // attempt count for the current atomic block

  /// Running, committing or aborting: the transaction holds isolation.
  bool active() const { return state != TxnState::kIdle; }

  /// Reset per-attempt state. The timestamp survives (progress guarantee).
  void reset_attempt() {
    state = TxnState::kIdle;
    frames.clear();
    read_sig.clear();
    write_sig.clear();
    read_lines.clear();
    write_lines.clear();
    undo.clear();
    logged_words.clear();
    redo.clear();
    redirected.clear();
    doomed = false;
    doom_cause = AbortCause::kNone;
    overflowed = false;
    degenerated = false;
    degen_undo_mark = 0;
    commit_waits = 0;
  }

  /// Full reset after a successful commit.
  void reset_committed() {
    reset_attempt();
    has_timestamp = false;
    attempts = 0;
  }
};

}  // namespace suvtm::htm
