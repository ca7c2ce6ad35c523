#pragma once

// Process-wide observability switch. Instrumentation is compiled in
// everywhere but defaults to the null sink: with every flag off, counters
// and histograms reduce to one relaxed atomic load each, spans to three and
// never read the clock, and pipeline/campaign outputs are bit-identical to
// an uninstrumented build (the same guarantee the fault layer makes for
// intensity 0; verified by tests_obs).

#include <atomic>

namespace starlab::obs {

struct Config {
  /// Metrics registry live: counters/gauges/histograms record.
  bool metrics = false;
  /// Tracing live: ObsSpan records into the TraceRecorder.
  bool tracing = false;
  /// Profiling live: ObsSpan closes aggregate into the span Profiler.
  bool profiling = false;

  [[nodiscard]] static Config disabled() { return {}; }
  [[nodiscard]] static Config all() { return {true, true, true}; }
};

namespace detail {
inline std::atomic<bool> g_metrics{false};
inline std::atomic<bool> g_tracing{false};
inline std::atomic<bool> g_profiling{false};
}  // namespace detail

inline void set_config(const Config& config) {
  detail::g_metrics.store(config.metrics, std::memory_order_relaxed);
  detail::g_tracing.store(config.tracing, std::memory_order_relaxed);
  detail::g_profiling.store(config.profiling, std::memory_order_relaxed);
}

[[nodiscard]] inline Config config() {
  return {detail::g_metrics.load(std::memory_order_relaxed),
          detail::g_tracing.load(std::memory_order_relaxed),
          detail::g_profiling.load(std::memory_order_relaxed)};
}

[[nodiscard]] inline bool metrics_enabled() {
  return detail::g_metrics.load(std::memory_order_relaxed);
}

[[nodiscard]] inline bool tracing_enabled() {
  return detail::g_tracing.load(std::memory_order_relaxed);
}

[[nodiscard]] inline bool profiling_enabled() {
  return detail::g_profiling.load(std::memory_order_relaxed);
}

/// Any instrumentation live at all (whether RunReports get stages and
/// wall-clock; ObsSpan times under the same rule).
[[nodiscard]] inline bool enabled() {
  return metrics_enabled() || tracing_enabled() || profiling_enabled();
}

/// Apply the STARLAB_OBS environment variable, if set: "" or "0" leaves the
/// null sink, "metrics" / "trace" / "prof" enable one side, "1" / "all"
/// enable everything. Returns the resulting config. Benches call this so
/// instrumented runs need no code change.
Config init_from_env();

}  // namespace starlab::obs
