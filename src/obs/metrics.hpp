// Uniform metrics registry: fixed-id counters, log2-bucket histograms and
// occupancy time series sampled on a simulated-cycle grid (see
// obs::Recorder::on_cycle), filled by the instrumentation hooks, plus
// MetricsSnapshot -- the harvested, value-comparable form that RunResult
// carries and runner::BenchReport flattens into BENCH_*.json.
//
// Ids are enums (array indices), not string lookups, so a hook costs one
// add on an array slot. Names only materialize at snapshot time.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace suvtm::obs {

enum class Counter : std::uint32_t {
  // Abort causes; kept in htm::AbortCause order (kDeadlockCycle..kExplicit).
  kAbortsDeadlock,
  kAbortsRequesterWins,
  kAbortsLazyInvalidated,
  kAbortsLazyCommitDoom,
  kAbortsSuspendedConflict,
  kAbortsNestingFallback,
  kAbortsExplicit,
  kConflictEdges,
  kStallRetries,
  kSuspends,
  kResumes,
  kDirForwards,
  kL1Evictions,
  kL2Evictions,
  kDirEntriesDropped,
  kSpecEvictions,
  kDegenerations,
  kUndoWalks,
  kSummaryAdds,
  kSummaryRemoves,
  kSummaryStaleRemoves,
  kTableSpills,
  kTableL1Overflows,
  kPoolPages,
  kSuvFlashCommits,
  kSuvFlashAborts,
  kCount,
};
const char* counter_name(Counter c);

enum class Histogram : std::uint32_t {
  kAbortCause,         // linear: bucket == htm::AbortCause value
  kMissLatency,        // log2 cycles of L1-miss service time
  kStallCycles,        // log2 cycles per contiguous stall stretch
  kBackoffCycles,      // log2 cycles per backoff
  kCommittedTxnCycles, // log2 duration of committed attempts
  kAbortedTxnCycles,   // log2 duration of aborted attempts
  kUndoEntriesAtAbort, // log2 undo-log length walked by an abort
  kLinesPerCommit,     // log2 write-set lines published/flipped per commit
  kCount,
};
const char* histogram_name(Histogram h);
bool histogram_is_linear(Histogram h);

enum class Series : std::uint32_t {
  kRedirectEntries,  // SUV redirect-table occupancy (L1 + L2 + memory)
  kPoolLines,        // preserved-pool lines handed out across cores
  kSuspendedTxns,    // descheduled transactions parked in the HTM
  kDirTracked,       // directory entries live
  kCount,
};
const char* series_name(Series s);

inline constexpr std::size_t kHistogramBuckets = 32;

struct HistogramData {
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;

  void observe(std::uint64_t v, bool linear);
  bool operator==(const HistogramData&) const = default;
};

struct SeriesPoint {
  Cycle t = 0;
  std::uint64_t v = 0;
  bool operator==(const SeriesPoint&) const = default;
};

class Metrics {
 public:
  void add(Counter c, std::uint64_t n = 1) {
    counters_[static_cast<std::size_t>(c)] += n;
  }
  void observe(Histogram h, std::uint64_t v) {
    histograms_[static_cast<std::size_t>(h)].observe(v, histogram_is_linear(h));
  }
  void sample(Series s, Cycle t, std::uint64_t v) {
    series_[static_cast<std::size_t>(s)].push_back({t, v});
  }
  std::uint64_t counter(Counter c) const {
    return counters_[static_cast<std::size_t>(c)];
  }
  const HistogramData& histogram(Histogram h) const {
    return histograms_[static_cast<std::size_t>(h)];
  }
  const std::vector<SeriesPoint>& series(Series s) const {
    return series_[static_cast<std::size_t>(s)];
  }

 private:
  std::array<std::uint64_t, static_cast<std::size_t>(Counter::kCount)>
      counters_{};
  std::array<HistogramData, static_cast<std::size_t>(Histogram::kCount)>
      histograms_{};
  std::array<std::vector<SeriesPoint>,
             static_cast<std::size_t>(Series::kCount)>
      series_{};
};

struct HistogramSnapshot {
  std::string name;
  HistogramData data;
  bool linear = false;
  bool operator==(const HistogramSnapshot&) const = default;
};

struct SeriesSnapshot {
  std::string name;
  std::vector<SeriesPoint> points;
  bool operator==(const SeriesSnapshot&) const = default;
};

/// The harvested metrics of one run. Scalars hold every nonzero counter
/// plus derived values the harvest adds (rates, final stats-block values);
/// they stay sorted by name so snapshots compare and serialize stably.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, double>> scalars;
  std::vector<HistogramSnapshot> histograms;  // nonzero-count only
  std::vector<SeriesSnapshot> series;         // nonempty only

  bool empty() const {
    return scalars.empty() && histograms.empty() && series.empty();
  }
  /// Insert or replace, keeping `scalars` sorted by name.
  void set(std::string_view name, double v);
  double get(std::string_view name, double missing = 0.0) const;

  bool operator==(const MetricsSnapshot&) const = default;
};

/// Snapshot the registry: nonzero counters become "obs.<name>" scalars,
/// histograms and series carry their registry names.
MetricsSnapshot snapshot(const Metrics& m);

/// Sum `b` into `a`: scalars and histograms add by name; series are dropped
/// (summing occupancy curves across runs is meaningless). Used by benches to
/// aggregate a matrix into one report block.
void merge(MetricsSnapshot& a, const MetricsSnapshot& b);

}  // namespace suvtm::obs
