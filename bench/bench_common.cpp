#include "bench_common.hpp"

#include <cmath>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>

#include "obs/config.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "obs/trace.hpp"

#ifndef STARLAB_GIT_SHA
#define STARLAB_GIT_SHA "unknown"
#endif

namespace starlab::bench {

const core::Scenario& full_scenario() {
  static const auto scenario =
      std::make_unique<core::Scenario>(core::Scenario::default_config(1.0));
  return *scenario;
}

const core::Scenario& half_scenario() {
  static const auto scenario =
      std::make_unique<core::Scenario>(core::Scenario::default_config(0.5));
  return *scenario;
}

const core::Scenario& gen2_scenario() {
  static const auto scenario = [] {
    core::ScenarioConfig cfg = core::Scenario::default_config(1.0);
    cfg.constellation.gen2 = true;
    return std::make_unique<core::Scenario>(std::move(cfg));
  }();
  return *scenario;
}

const core::CampaignData& standard_campaign() {
  static const core::CampaignData data = [] {
    obs::Stopwatch timer;
    std::printf("[setup] running 12 h measurement campaign over %zu satellites"
                " x 4 terminals (stride 2)...\n",
                full_scenario().catalog().size());
    core::CampaignConfig cfg;
    cfg.duration_hours = 12.0;
    cfg.slot_stride = 2;
    core::CampaignData d = core::run_campaign(full_scenario(), cfg);
    std::printf("[setup] campaign done: %zu slot observations in %.1f s\n\n",
                d.slots.size(), timer.seconds());
    return d;
  }();
  return data;
}

void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

void print_comparison(const std::string& metric, const std::string& paper,
                      const std::string& measured) {
  std::printf("  %-52s paper: %-18s measured: %s\n", metric.c_str(),
              paper.c_str(), measured.c_str());
}

void print_ecdf_row(const std::string& label, const analysis::Ecdf& ecdf,
                    double lo, double hi, double step) {
  std::printf("  %-28s", label.c_str());
  const int points = static_cast<int>(std::lround((hi - lo) / step)) + 1;
  for (const auto& [x, fraction] : ecdf.series(lo, hi, points)) {
    std::printf(" %5.2f", fraction);
  }
  std::printf("\n");
}

std::string git_sha() { return STARLAB_GIT_SHA; }

namespace {

/// Value of `--NAME=...` if `arg` carries it, nullptr otherwise.
const char* flag_value(const char* arg, const char* name) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') return arg + n + 1;
  return nullptr;
}

/// The metrics snapshot's path beside a JSONL report path.
std::string metrics_snapshot_path(const std::string& json_path) {
  std::filesystem::path path(json_path);
  path.replace_filename("metrics_" + path.filename().string());
  return path.string();
}

}  // namespace

ReportSink::ReportSink(int& argc, char** argv, std::string default_json_path)
    : json_path_(std::move(default_json_path)) {
  obs::init_from_env();

  // Consume our flags, compacting argv so later parsers never see them.
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (const char* v = flag_value(argv[i], "--json-out")) {
      json_path_ = v;
    } else if (const char* v2 = flag_value(argv[i], "--trace-out")) {
      trace_path_ = v2;
    } else if (const char* v3 = flag_value(argv[i], "--prof-out")) {
      prof_path_ = v3;
    } else if (const char* v4 = flag_value(argv[i], "--collapsed-out")) {
      collapsed_path_ = v4;
    } else if (std::strcmp(argv[i], "--no-json") == 0) {
      json_path_.clear();
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;

  obs::Config cfg = obs::config();
  if (!json_path_.empty()) cfg.metrics = true;  // stage spans time under it
  if (!trace_path_.empty()) cfg.tracing = true;
  if (!prof_path_.empty() || !collapsed_path_.empty()) cfg.profiling = true;
  obs::set_config(cfg);
}

ReportSink::~ReportSink() {
  // An empty sink means the bench bailed before producing results (bad
  // flag, filtered-out run); keep any previous report file intact.
  if (!json_path_.empty() && !reports_.empty()) {
    for (obs::RunReport& r : reports_) {
      if (r.git_sha.empty()) r.git_sha = git_sha();
    }
    try {
      io::save_run_reports_file(json_path_, reports_);
      std::printf("\n[report] %zu run report(s) -> %s\n", reports_.size(),
                  json_path_.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[report] FAILED writing %s: %s\n",
                   json_path_.c_str(), e.what());
    }
    const std::string metrics_path = metrics_snapshot_path(json_path_);
    std::ofstream out(metrics_path);
    if (out) {
      out << obs::MetricsRegistry::instance().json() << '\n';
      std::printf("[report] metrics snapshot -> %s\n", metrics_path.c_str());
    } else {
      std::fprintf(stderr, "[report] FAILED opening %s\n",
                   metrics_path.c_str());
    }
  }
  if (!trace_path_.empty()) {
    std::ofstream out(trace_path_);
    if (out) {
      out << obs::TraceRecorder::instance().chrome_trace_json() << '\n';
      std::printf("[report] %zu trace span(s) -> %s (open in Perfetto)\n",
                  obs::TraceRecorder::instance().size(), trace_path_.c_str());
    } else {
      std::fprintf(stderr, "[report] FAILED opening %s\n", trace_path_.c_str());
    }
  }
  if (!prof_path_.empty()) {
    std::ofstream out(prof_path_);
    if (out) {
      out << obs::Profiler::instance().report_json() << '\n';
      std::printf("[report] %zu profiled path(s) -> %s\n",
                  obs::Profiler::instance().size(), prof_path_.c_str());
    } else {
      std::fprintf(stderr, "[report] FAILED opening %s\n", prof_path_.c_str());
    }
  }
  if (!collapsed_path_.empty()) {
    std::ofstream out(collapsed_path_);
    if (out) {
      out << obs::Profiler::instance().collapsed_stacks();
      std::printf("[report] collapsed stacks -> %s (flamegraph.pl input)\n",
                  collapsed_path_.c_str());
    } else {
      std::fprintf(stderr, "[report] FAILED opening %s\n",
                   collapsed_path_.c_str());
    }
  }
}

void ReportSink::add(obs::RunReport report) {
  reports_.push_back(std::move(report));
}

}  // namespace starlab::bench
