// Shared pieces of the repository benchmark: host clocks, the in-memory
// span recorder, the A/B (ABBA) estimator, the RunResult digest and the
// metric sink the benchmark prints from.
#pragma once

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "runner/experiment.hpp"

namespace repobench {

inline double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of `v` (p in [0, 100]).
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(v.size()) + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

// ---- spans ------------------------------------------------------------------

/// In-memory span log for the traced run: name, start, end, parent and run
/// id per span, recorded around the calls the benchmark makes into the
/// simulator. Nothing is written until the run ends.
class Spans {
 public:
  struct Span {
    const char* name;
    std::int64_t parent;  // index into spans(), -1 for a root
    std::uint64_t run;
    double start;
    double end;
  };

  /// Opens a span under the innermost open one; returns its index.
  std::size_t open(const char* name, std::uint64_t run) {
    const std::int64_t parent =
        stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
    spans_.push_back(Span{name, parent, run, wall_now(), 0.0});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close(std::size_t idx) {
    spans_[idx].end = wall_now();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name: each span's duration minus the part of it its
  /// children cover (children are sequential, so they never overlap).
  std::map<std::string, double> self_seconds() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] += spans_[i].end - spans_[i].start - child[i];
    }
    return out;
  }

  /// Total duration per span name.
  std::map<std::string, double> total_seconds() const {
    std::map<std::string, double> out;
    for (const Span& s : spans_) out[s.name] += s.end - s.start;
    return out;
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// RAII span; a null recorder makes it free apart from the pointer test.
class SpanScope {
 public:
  SpanScope(Spans* s, const char* name, std::uint64_t run = 0) : s_(s) {
    if (s_ != nullptr) idx_ = s_->open(name, run);
  }
  ~SpanScope() {
    if (s_ != nullptr) s_->close(idx_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Spans* s_;
  std::size_t idx_ = 0;
};

// ---- A/B estimator ----------------------------------------------------------

enum class AbClock { kProcessCpu, kWall };

/// Per-round B/A time ratios of an interleaved A/B comparison.
struct AbResult {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
  int rounds = 0;
};

/// The one estimator every differential row uses. A round walks `units`
/// (the matrix points) and times A, B, B, A on each unit back to back
/// (ABBA), so drift hits both arms equally even inside a round; the result
/// is the median, min and max over rounds of sum(B) / sum(A). Serial rows use
/// process CPU time (immune to descheduling); the host-thread comparison
/// uses wall time, the quantity threads shorten.
inline AbResult ab_compare(std::size_t units,
                           const std::function<void(std::size_t)>& a,
                           const std::function<void(std::size_t)>& b,
                           int rounds, AbClock clock) {
  const auto now = [clock] {
    return clock == AbClock::kWall ? wall_now() : cpu_now();
  };
  std::vector<double> ratios;
  for (int r = 0; r < rounds; ++r) {
    double ta = 0.0, tb = 0.0;
    for (std::size_t u = 0; u < units; ++u) {
      const double t0 = now();
      a(u);
      const double t1 = now();
      b(u);
      b(u);
      const double t2 = now();
      a(u);
      ta += (t1 - t0) + (now() - t2);
      tb += t2 - t1;
    }
    if (ta > 0) ratios.push_back(tb / ta);
  }
  AbResult out;
  out.rounds = rounds;
  if (!ratios.empty()) {
    out.median = median(ratios);
    out.min = *std::min_element(ratios.begin(), ratios.end());
    out.max = *std::max_element(ratios.begin(), ratios.end());
  }
  return out;
}

// ---- RunResult digest -------------------------------------------------------

/// FNV-1a over the object representation of padding-free stats blocks and
/// over the contents of the variable-size members, so two RunResults that
/// compare == always digest alike and any differing statistic shows.
class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ b[i]) * 0x100000001b3ull;
    }
  }
  template <class T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::has_unique_object_representations_v<T>,
                  "digest only padding-free stats blocks byte-wise");
    bytes(&v, sizeof(v));
  }
  void f64(double v) {
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    pod(u);
  }
  void str(const std::string& s) {
    pod(static_cast<std::uint64_t>(s.size()));
    bytes(s.data(), s.size());
  }

  void result(const suvtm::runner::RunResult& r);

  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

inline void Digest::result(const suvtm::runner::RunResult& r) {
  str(r.app);
  pod(static_cast<std::uint64_t>(r.scheme));
  pod(r.makespan);
  pod(r.sim_events);
  for (std::size_t b = 0; b < suvtm::sim::kNumBuckets; ++b) {
    pod(r.breakdown.get(static_cast<suvtm::sim::Bucket>(b)));
  }
  pod(r.htm);
  pod(r.conflicts);
  pod(r.vm);
  pod(r.mem);
  pod(static_cast<std::uint8_t>(r.has_suv));
  pod(r.table);
  pod(r.suv);
  pod(r.pool_lines_in_use);
  pod(static_cast<std::uint64_t>(r.redirect_entries_live));
  pod(static_cast<std::uint8_t>(r.has_dyntm));
  pod(r.dyntm);
  pod(static_cast<std::uint64_t>(r.metrics.scalars.size()));
  for (const auto& [name, v] : r.metrics.scalars) {
    str(name);
    f64(v);
  }
  pod(static_cast<std::uint64_t>(r.metrics.histograms.size()));
  for (const auto& h : r.metrics.histograms) {
    str(h.name);
    pod(h.data);
    pod(static_cast<std::uint8_t>(h.linear));
  }
  pod(static_cast<std::uint64_t>(r.metrics.series.size()));
  for (const auto& s : r.metrics.series) {
    str(s.name);
    pod(static_cast<std::uint64_t>(s.points.size()));
    for (const auto& p : s.points) {
      pod(p.t);
      pod(p.v);
    }
  }
}

// ---- metric sink ------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Ordered name -> (value, unit); `na` names the metrics that do not apply
/// to the workload (reported as 0 so every named metric is present).
struct Metrics {
  std::map<std::string, Metric> m;
  std::vector<std::string> na;

  void set(const std::string& name, double v, const std::string& unit) {
    m[name] = Metric{v, unit};
  }
  void not_applicable(const std::string& name, const std::string& unit) {
    set(name, 0.0, unit);
    na.push_back(name);
  }
};

}  // namespace repobench
