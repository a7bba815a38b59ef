// Structural invariant audits (src/check's second half, next to the history
// oracle): walk the simulator's live data structures and report every way
// they disagree with each other. Each audit returns human-readable violation
// strings; an empty vector means the structure is internally consistent.
//
// The invariants encoded here are the load-bearing cross-structure
// agreements the schemes rely on:
//   - MESI: directory owner/sharer info matches the L1 states, the
//     inclusive L2 backs every non-M L1 line, SM bits are tracked.
//   - Signatures: every Bloom filter is a superset of the exact set it
//     summarizes (read/write sets, suspended summaries).
//   - SUV: redirect entries, summary signatures, table caches, pinned sets,
//     pool accounting and per-transaction ownership lists all describe the
//     same single live version of every redirected line.
//   - Parked retries: every parked core's memoized stall is still the
//     decision its retry would reach.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"

namespace suvtm::mem {
class MemorySystem;
}
namespace suvtm::htm {
class HtmSystem;
}
namespace suvtm::vm {
class SuvVm;
}

namespace suvtm::check {

/// MESI single-owner/sharer agreement + L2 inclusion + SM-bit tracking.
std::vector<std::string> audit_coherence(const mem::MemorySystem& mem);

/// Per-transaction signatures and the suspended summaries are supersets of
/// the exact sets they stand for.
std::vector<std::string> audit_signatures(const htm::HtmSystem& htm);

/// Redirect-table / summary / pool / ownership consistency: exactly one
/// live version per redirected line, balanced pool refcounts, hardware
/// table levels cache only live entries.
std::vector<std::string> audit_suv(const vm::SuvVm& suv,
                                   const htm::HtmSystem& htm);

/// Every parked NACK retry still repeats its memoized decision: the
/// conflict manager's rules, re-evaluated side-effect free over the live
/// transactions, give the same holder, the same exactness and a plain
/// stall. A mismatch means a trigger that should have unparked the core
/// did not fire.
std::vector<std::string> audit_parked(const htm::HtmSystem& htm);

/// Abort-scoped audit, O(aborted footprint): runs after every abort
/// completes, while the descriptor still holds the attempt's sets. Checks
/// the aborting core's sets are still inside its signatures and -- for SUV
/// -- that no transient redirect it owned survived the abort walk. The
/// global structure walks stay on the sampled commit path and finalize();
/// per abort they cost a full table/directory sweep.
std::vector<std::string> audit_abort(const htm::HtmSystem& htm,
                                     const vm::SuvVm* suv, CoreId core);

/// All of the above (suv audits skipped when `suv` is nullptr).
std::vector<std::string> audit_all(const mem::MemorySystem& mem,
                                   const htm::HtmSystem& htm,
                                   const vm::SuvVm* suv);

}  // namespace suvtm::check
