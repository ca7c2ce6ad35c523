#pragma once

// Hierarchical span-statistics profiler riding the obs::trace spans. Where
// the TraceRecorder keeps every span as an event for a Chrome flame chart,
// the Profiler aggregates spans *by call path*
// ("pipeline.run;pipeline.identify"):
// per-path call count, total and self wall-clock, min/max, and streaming
// p50/p95 (Jain & Chlamtac's P-squared estimator, O(1) memory per path).
// Export is a JSON profile report (consumed by tools/benchdiff's budget
// gate) or Brendan Gregg collapsed-stack text for flamegraph tooling.
//
// Cost model matches the rest of the obs layer: default-off behind
// obs::Config (one relaxed atomic load per span, outputs bit-identical to
// an uninstrumented build), and when on, one short mutex-guarded map update
// per span *close* — spans are coarse (per run, per stage, per slot), never
// per pixel or per DTW cell, so the lock is as cold as the metrics
// registry's registration mutex.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "check/thread_annotations.hpp"
#include "obs/config.hpp"

namespace starlab::obs {

/// Streaming quantile estimator: the P-squared algorithm (Jain & Chlamtac,
/// CACM 1985). Five markers, O(1) memory. Exact for the first five
/// observations, approximate thereafter.
class P2Quantile {
 public:
  explicit P2Quantile(double quantile) : q_(quantile) {}

  void observe(double x);

  /// Current estimate; exact (interpolated) below five observations,
  /// 0.0 when empty.
  [[nodiscard]] double value() const;

  [[nodiscard]] std::uint64_t count() const { return count_; }

 private:
  double q_;
  std::uint64_t count_ = 0;
  double heights_[5] = {};     ///< marker heights q_i (raw samples while n<5)
  double positions_[5] = {};   ///< actual marker positions n_i
  double desired_[5] = {};     ///< desired marker positions n'_i
  double increments_[5] = {};  ///< dn'_i
};

/// Aggregated statistics for one call path. `path` is the span's name
/// prefixed by every enclosing span's name on the same thread, joined with
/// ';' (the collapsed-stack convention); ';' is therefore reserved in span
/// names. Spans opened on pool worker threads have no enclosing span there,
/// so e.g. exec.chunk appears both nested under campaign.run (the
/// caller-participates chunk) and as a top-level path (worker chunks).
struct SpanStats {
  std::string path;
  std::string name;       ///< last path component (the span's own name)
  int parent = -1;        ///< index of the parent path in the report; -1 = top
  std::uint32_t depth = 0;  ///< path components minus one
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  /// total_ns minus the direct children's total_ns, clamped at 0 (an
  /// ancestor synthesized for a still-open span has total 0).
  std::uint64_t self_ns = 0;
  std::uint64_t min_ns = 0;
  std::uint64_t max_ns = 0;
  double p50_ns = 0.0;
  double p95_ns = 0.0;
};

/// The process-wide span-statistics aggregator. ObsSpan reports every close
/// here when profiling is enabled; tests may call record() directly with a
/// synthetic path.
class Profiler {
 public:
  Profiler() = default;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  [[nodiscard]] static Profiler& instance();

  /// Fold one span close into the path's aggregate. `path` is the
  /// ';'-joined call path whose last component is the closing span's name.
  void record(std::string_view path, std::uint64_t dur_ns) EXCLUDES(mu_);

  void clear() EXCLUDES(mu_);

  /// Number of distinct call paths recorded.
  [[nodiscard]] std::size_t size() const EXCLUDES(mu_);

  /// Deterministic snapshot: paths in lexicographic order (a parent path
  /// always precedes its children), parent indices resolved, self time
  /// computed. Ancestor paths whose span has not closed yet are synthesized
  /// with zero counts so the tree is always connected.
  [[nodiscard]] std::vector<SpanStats> snapshot() const EXCLUDES(mu_);

  /// JSON profile report:
  ///   {"kind":"profile","spans":[{"path":...,"name":...,"parent":...,
  ///    "depth":...,"count":...,"total_ns":...,"self_ns":...,"min_ns":...,
  ///    "max_ns":...,"p50_ns":...,"p95_ns":...},...],
  ///    "names":[{"name":...,"count":...,"total_ns":...,"self_ns":...},...]}
  /// "spans" is the per-path tree; "names" rolls the same data up by leaf
  /// span name (what bench/budgets.toml ceilings are written against).
  [[nodiscard]] std::string report_json() const EXCLUDES(mu_);

  /// Brendan Gregg collapsed-stack text, one "path value" line per path,
  /// lexicographically sorted; value = self time in nanoseconds. Feed to
  /// flamegraph.pl --countname=ns.
  [[nodiscard]] std::string collapsed_stacks() const EXCLUDES(mu_);

 private:
  struct Node {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t min_ns = 0;
    std::uint64_t max_ns = 0;
    P2Quantile p50{0.5};
    P2Quantile p95{0.95};
  };

  /// Guards the path map. Only span closes and exports take it; span opens
  /// cost a relaxed config load plus a thread-local push.
  mutable check::Mutex mu_;
  std::map<std::string, Node, std::less<>> nodes_ GUARDED_BY(mu_);
};

}  // namespace starlab::obs
