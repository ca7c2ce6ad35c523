#pragma once

// RAII timing spans with thread-local nesting, recorded against the
// monotonic clock and exported as Chrome trace_event JSON — open a run in
// chrome://tracing or https://ui.perfetto.dev to see where the wall-clock
// went. Spans are compiled in everywhere and cost three relaxed atomic
// loads when obs is off; when on, a span is two clock reads, plus one
// mutex-guarded append at end-of-scope when tracing (spans are coarse: per
// run, per stage, per slot — never per pixel or per DTW cell).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "check/thread_annotations.hpp"
#include "obs/config.hpp"

namespace starlab::obs {

struct StageStat;

struct TraceEvent {
  std::string name;
  std::uint64_t start_ns = 0;  ///< monotonic_ns() at span open
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;    ///< small per-thread id (1, 2, ...)
  std::uint32_t depth = 0;  ///< nesting depth on that thread (0 = outermost)
};

class TraceRecorder {
 public:
  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// The process-wide recorder every ObsSpan reports to.
  [[nodiscard]] static TraceRecorder& instance();

  void clear() EXCLUDES(mu_);
  [[nodiscard]] std::size_t size() const EXCLUDES(mu_);
  [[nodiscard]] std::vector<TraceEvent> events() const EXCLUDES(mu_);

  /// Chrome trace_event JSON: {"traceEvents":[{"ph":"X",...},...]}.
  /// Timestamps are rebased to the earliest event and expressed in
  /// microseconds, events sorted by start time.
  [[nodiscard]] std::string chrome_trace_json() const EXCLUDES(mu_);

  void record(TraceEvent event) EXCLUDES(mu_);

 private:
  mutable check::Mutex mu_;
  std::vector<TraceEvent> events_ GUARDED_BY(mu_);
};

/// One timed scope, and the only timer in the library. While any obs flag
/// is on it reads the clock at open and close and hands that one duration
/// to every consumer: the optional StageStat (a RunReport stage: wall_ns and
/// calls), the TraceRecorder (tracing on) and the span Profiler (profiling
/// on), so the report, the trace and the profile reconcile exactly. With
/// everything off the constructor is three relaxed loads and nothing else
/// happens. A span that only times allocates nothing: `name` is held as a
/// view, so it must outlive the span (callers pass literals), and is copied
/// only into a TraceEvent.
class ObsSpan {
 public:
  explicit ObsSpan(std::string_view name, StageStat* stage = nullptr);
  ~ObsSpan();
  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

  /// Nanoseconds since the span opened; 0 when it is not timing.
  [[nodiscard]] std::uint64_t elapsed_ns() const;

  /// The calling thread's trace id (assigned on first use, starting at 1).
  [[nodiscard]] static std::uint32_t thread_id();

 private:
  std::string_view name_;
  StageStat* stage_;
  std::uint64_t start_ns_ = 0;
  std::uint32_t depth_ = 0;
  bool timed_ = false;        ///< some obs flag was on at open
  bool active_ = false;       ///< recording a TraceEvent (tracing on at open)
  bool prof_active_ = false;  ///< on this thread's profile path (prof at open)
};

}  // namespace starlab::obs
