// perfgate — the profile half of the ctest `perfgate` label. Runs the
// identification pipeline at 1/8 scale with profiling enabled and writes
// the span Profiler's JSON report; benchdiff then checks the [span]
// ceilings in bench/budgets.toml against it (mean ns per call). Ceilings
// are deliberately ~100x the measured numbers: the gate exists to catch
// order-of-magnitude regressions (an accidentally quadratic loop, a cache
// bypass), not scheduler jitter on a loaded CI runner. perfgate itself
// exits 1 when pipeline.run's self time exceeds 5 % of its total, i.e. when
// the run's stage spans stop accounting for its wall-clock.
//
//   perfgate [--out=perfgate_prof.json] [--collapsed=PATH] [--gen2]
//
// --gen2 swaps in the Gen2 constellation (Gen1 shells plus the 120x45
// extension shell) at the same 1/8 scale, for the budgets_gen2.toml span
// ceilings.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "core/pipeline.hpp"
#include "core/scenario.hpp"
#include "obs/config.hpp"
#include "obs/prof.hpp"

namespace {

const char* flag_value(const char* arg, const char* name) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') return arg + n + 1;
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace starlab;

  std::string out_path = "perfgate_prof.json";
  std::string collapsed_path;
  bool gen2 = false;
  for (int i = 1; i < argc; ++i) {
    if (const char* v = flag_value(argv[i], "--out")) {
      out_path = v;
    } else if (const char* v2 = flag_value(argv[i], "--collapsed")) {
      collapsed_path = v2;
    } else if (std::strcmp(argv[i], "--gen2") == 0) {
      gen2 = true;
    } else {
      std::fprintf(stderr,
                   "usage: perfgate [--out=PATH] [--collapsed=PATH] "
                   "[--gen2]\n");
      return 2;
    }
  }

  obs::Config cfg;
  cfg.metrics = true;
  cfg.profiling = true;
  obs::set_config(cfg);

  std::printf("[perfgate] building 1/8-scale %s scenario...\n",
              gen2 ? "Gen2" : "Gen1");
  core::ScenarioConfig scenario_cfg = core::Scenario::default_config(0.125);
  scenario_cfg.constellation.gen2 = gen2;
  const core::Scenario scenario(std::move(scenario_cfg));
  const core::InferencePipeline pipeline(scenario);

  std::printf("[perfgate] running pipeline (terminal 0, 15 min)...\n");
  const core::PipelineResult result = pipeline.run(0, 15.0 * 60.0);
  std::printf("[perfgate] %zu slot(s), accuracy %.3f\n", result.rows.size(),
              result.accuracy());

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "[perfgate] FAILED opening %s\n", out_path.c_str());
    return 1;
  }
  out << obs::Profiler::instance().report_json() << '\n';
  std::printf("[perfgate] %zu profiled path(s) -> %s\n",
              obs::Profiler::instance().size(), out_path.c_str());

  if (!collapsed_path.empty()) {
    std::ofstream collapsed(collapsed_path);
    if (!collapsed) {
      std::fprintf(stderr, "[perfgate] FAILED opening %s\n",
                   collapsed_path.c_str());
      return 1;
    }
    collapsed << obs::Profiler::instance().collapsed_stacks();
    std::printf("[perfgate] collapsed stacks -> %s\n", collapsed_path.c_str());
  }

  // Attribution gate: the run's stage spans must account for its time, so
  // pipeline.run's self time may be at most 5 % of its total.
  constexpr double kMaxRunSelfFrac = 0.05;
  for (const obs::SpanStats& s : obs::Profiler::instance().snapshot()) {
    if (s.path != "pipeline.run") continue;
    const double self_frac =
        s.total_ns == 0 ? 1.0
                        : static_cast<double>(s.self_ns) /
                              static_cast<double>(s.total_ns);
    std::printf("[perfgate] pipeline.run self time %.2f%% of %.2f ms\n",
                100.0 * self_frac, static_cast<double>(s.total_ns) * 1e-6);
    if (self_frac > kMaxRunSelfFrac) {
      std::fprintf(stderr,
                   "[perfgate] FAILED: pipeline.run self time above %.0f%%\n",
                   100.0 * kMaxRunSelfFrac);
      return 1;
    }
    return 0;
  }
  std::fprintf(stderr, "[perfgate] FAILED: no pipeline.run span profiled\n");
  return 1;
}
