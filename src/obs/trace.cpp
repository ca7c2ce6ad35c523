#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>

#include "obs/clock.hpp"
#include "obs/json_writer.hpp"
#include "obs/prof.hpp"
#include "obs/run_report.hpp"

namespace starlab::obs {

namespace {
std::atomic<std::uint32_t> g_next_tid{1};
thread_local std::uint32_t t_tid = 0;
thread_local std::uint32_t t_depth = 0;
/// The calling thread's open profiled spans, outermost first. Views alias
/// each ObsSpan's name, a literal that outlives every span.
thread_local std::vector<std::string_view> t_prof_path;
}  // namespace

TraceRecorder& TraceRecorder::instance() {
  static TraceRecorder recorder;
  return recorder;
}

void TraceRecorder::clear() {
  const check::MutexLock lock(mu_);
  events_.clear();
}

std::size_t TraceRecorder::size() const {
  const check::MutexLock lock(mu_);
  return events_.size();
}

std::vector<TraceEvent> TraceRecorder::events() const {
  const check::MutexLock lock(mu_);
  return events_;
}

void TraceRecorder::record(TraceEvent event) {
  const check::MutexLock lock(mu_);
  events_.push_back(std::move(event));
}

std::string TraceRecorder::chrome_trace_json() const {
  std::vector<TraceEvent> sorted = events();
  std::sort(sorted.begin(), sorted.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.start_ns < b.start_ns;
            });
  const std::uint64_t epoch = sorted.empty() ? 0 : sorted.front().start_ns;

  JsonWriter w;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  for (const TraceEvent& e : sorted) {
    w.begin_object();
    w.key("name");
    w.value(e.name);
    w.key("ph");
    w.value("X");
    w.key("ts");
    w.value(static_cast<double>(e.start_ns - epoch) * 1e-3);
    w.key("dur");
    w.value(static_cast<double>(e.dur_ns) * 1e-3);
    w.key("pid");
    w.value(std::uint64_t{1});
    w.key("tid");
    w.value(static_cast<std::uint64_t>(e.tid));
    w.key("args");
    w.begin_object();
    w.key("depth");
    w.value(static_cast<std::uint64_t>(e.depth));
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.key("displayTimeUnit");
  w.value("ms");
  w.end_object();
  return std::move(w).str();
}

std::uint32_t ObsSpan::thread_id() {
  if (t_tid == 0) t_tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  return t_tid;
}

ObsSpan::ObsSpan(std::string_view name, StageStat* stage)
    : name_(name), stage_(stage) {
  const bool tracing = tracing_enabled();
  const bool profiling = profiling_enabled();
  if (!tracing && !profiling && !metrics_enabled()) return;
  timed_ = true;
  start_ns_ = monotonic_ns();
  if (tracing) {
    depth_ = t_depth++;
    active_ = true;
  }
  if (profiling) {
    t_prof_path.push_back(name_);
    prof_active_ = true;
  }
}

std::uint64_t ObsSpan::elapsed_ns() const {
  return timed_ ? monotonic_ns() - start_ns_ : 0;
}

ObsSpan::~ObsSpan() {
  if (!timed_) return;
  // One duration measurement shared by the stage, the profiler and the
  // trace event, so the three views reconcile exactly.
  const std::uint64_t dur_ns = monotonic_ns() - start_ns_;
  if (stage_ != nullptr) {
    stage_->wall_ns += dur_ns;
    ++stage_->calls;
  }
  if (prof_active_) {
    std::string path;
    for (const std::string_view part : t_prof_path) {
      if (!path.empty()) path += ';';
      path += part;
    }
    t_prof_path.pop_back();
    Profiler::instance().record(path, dur_ns);
  }
  if (active_) {
    --t_depth;
    TraceEvent e;
    e.name = std::string(name_);
    e.start_ns = start_ns_;
    e.dur_ns = dur_ns;
    e.tid = thread_id();
    e.depth = depth_;
    TraceRecorder::instance().record(std::move(e));
  }
}

}  // namespace starlab::obs
