// google-benchmark microbenchmarks for the hot paths: SGP4 propagation, the
// whole-sky visibility query, DTW matching, one slot's satellite
// identification, the §4 pipeline over a few slots, forest inference,
// obstruction-map XOR and trajectory isolation, and the Mann-Whitney test.
// These bound the cost of scaling campaigns to longer durations and denser
// constellations. Besides the console table, per-section ns/op land in
// BENCH_perf.json (one RunReport line, git SHA stamped) so regressions are
// diffable across commits.

#include <benchmark/benchmark.h>

#include <optional>
#include <random>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/campaign.hpp"
#include "core/pipeline.hpp"
#include "exec/thread_pool.hpp"
#include "match/trajectory.hpp"
#include "obsmap/components.hpp"
#include "obsmap/painter.hpp"

using namespace starlab;

namespace {

const core::Scenario& sc() { return bench::half_scenario(); }

void BM_Sgp4Propagate(benchmark::State& state) {
  const sgp4::Ephemeris& eph = sc().catalog().ephemeris(0);
  const time::JulianDate jd =
      time::JulianDate::from_unix_seconds(sc().epoch_unix());
  double t = 0.0;
  for (auto _ : state) {
    t += 1.0;
    benchmark::DoNotOptimize(eph.state_teme(jd.plus_seconds(t)));
  }
}
BENCHMARK(BM_Sgp4Propagate);

void BM_CatalogPropagateAll(benchmark::State& state) {
  // Thread-scaling variant: the arg picks the exec pool width, so the
  // BENCH_perf.json speedup of /8 over /1 is the tentpole's scaling number.
  exec::configure({static_cast<int>(state.range(0))});
  const time::JulianDate jd =
      time::JulianDate::from_unix_seconds(sc().epoch_unix());
  double t = 0.0;
  for (auto _ : state) {
    t += 15.0;
    benchmark::DoNotOptimize(sc().catalog().propagate_all(jd.plus_seconds(t)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sc().catalog().size()));
  exec::configure({});
}
BENCHMARK(BM_CatalogPropagateAll)->ArgName("threads")->Arg(1)->Arg(2)->Arg(8);

void BM_CampaignSlice(benchmark::State& state) {
  // End-to-end slot fan-out (propagate + candidates + allocate per slot and
  // terminal) at 1/2/8 exec threads — the run_campaign hot path.
  exec::configure({static_cast<int>(state.range(0))});
  core::CampaignConfig cfg;
  cfg.duration_hours = 0.05;  // 12 slots x 4 terminals
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_campaign(sc(), cfg));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 12 *
                          static_cast<std::int64_t>(sc().terminals().size()));
  exec::configure({});
}
BENCHMARK(BM_CampaignSlice)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_CatalogPropagateAllGen2(benchmark::State& state) {
  // Full Gen2 catalog (~9.6k satellites), single thread: the per-satellite
  // batch cost at the scale the SoA layout and spatial index target.
  exec::configure({1});
  const core::Scenario& g2 = bench::gen2_scenario();
  const time::JulianDate jd =
      time::JulianDate::from_unix_seconds(g2.epoch_unix());
  double t = 0.0;
  for (auto _ : state) {
    t += 15.0;
    benchmark::DoNotOptimize(g2.catalog().propagate_all(jd.plus_seconds(t)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g2.catalog().size()));
  exec::configure({});
}
BENCHMARK(BM_CatalogPropagateAllGen2)->Name("BM_CatalogPropagateAll/gen2");

void BM_VisibleFrom(benchmark::State& state) {
  const time::JulianDate jd =
      time::JulianDate::from_unix_seconds(sc().epoch_unix());
  const geo::Geodetic site = sc().terminal(0).site();
  double t = 0.0;
  for (auto _ : state) {
    t += 15.0;
    benchmark::DoNotOptimize(
        sc().catalog().visible_from(site, jd.plus_seconds(t)));
  }
}
BENCHMARK(BM_VisibleFrom);

void BM_VisibleFromGen2(benchmark::State& state) {
  // The whole-sky query at Gen2 density. The spatial index keeps this
  // O(visible): cost should track the candidate count, not the 2.3x catalog
  // growth over the Gen1 variant.
  const core::Scenario& g2 = bench::gen2_scenario();
  const time::JulianDate jd =
      time::JulianDate::from_unix_seconds(g2.epoch_unix());
  const geo::Geodetic site = g2.terminal(0).site();
  double t = 0.0;
  for (auto _ : state) {
    t += 15.0;
    benchmark::DoNotOptimize(
        g2.catalog().visible_from(site, jd.plus_seconds(t)));
  }
}
BENCHMARK(BM_VisibleFromGen2)->Name("BM_VisibleFrom/gen2");

void TerminalCandidates(benchmark::State& state, const core::Scenario& s) {
  // One terminal's annotated field of view against a shared snapshot (the
  // campaign's per-terminal cost): spatial-index query, obstruction mask
  // and the GSO exclusion test per candidate. Propagation is outside.
  const time::JulianDate jd =
      time::JulianDate::from_unix_seconds(s.epoch_unix());
  const auto snaps = s.catalog().propagate_all(jd);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        s.terminal(0).candidates_from_snapshots(s.catalog(), snaps, jd));
  }
}

void BM_TerminalCandidates(benchmark::State& state) {
  TerminalCandidates(state, sc());
}
BENCHMARK(BM_TerminalCandidates);

void BM_TerminalCandidatesGen2(benchmark::State& state) {
  TerminalCandidates(state, bench::gen2_scenario());
}
BENCHMARK(BM_TerminalCandidatesGen2)->Name("BM_TerminalCandidates/gen2");

void BM_SchedulerAllocate(benchmark::State& state) {
  time::SlotIndex slot = sc().first_slot();
  for (auto _ : state) {
    ++slot;
    benchmark::DoNotOptimize(
        sc().global_scheduler().allocate(sc().terminal(0), slot));
  }
}
BENCHMARK(BM_SchedulerAllocate);

void BM_DtwDistance(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> u(0.0, 100.0);
  std::vector<match::Point2> a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = {u(rng), u(rng)};
    b[i] = {u(rng), u(rng)};
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(match::dtw_distance(a, b, 16));
  }
  // Path points consumed per second — comparable across the Arg sizes.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DtwDistance)->Arg(15)->Arg(60)->Arg(240);

void IdentifySlot(benchmark::State& state, const core::Scenario& s) {
  // One slot's §4 identification against the full catalog: the lower-bound
  // ordering, and path sampling plus both DTW traversals for the candidates
  // the bound cannot rule out. The slot's sky is queried once, outside the
  // timed loop, as InferencePipeline::run queries it for allocation. The
  // isolated frame is the serving satellite's painted trajectory for the
  // first slot with an allocation.
  const ground::Terminal& terminal = s.terminal(0);
  const time::SlotGrid& grid = s.grid();
  time::SlotIndex slot = s.first_slot();
  std::optional<scheduler::Allocation> serving =
      s.global_scheduler().allocate(terminal, slot);
  while (!serving.has_value()) {
    serving = s.global_scheduler().allocate(terminal, ++slot);
  }
  obsmap::ObstructionMap isolated;
  obsmap::TrajectoryPainter().paint(s.catalog(), serving->catalog_index,
                                    terminal, grid.slot_start(slot),
                                    grid.slot_end(slot), isolated);
  const match::SatelliteIdentifier identifier(s.catalog(),
                                              obsmap::MapGeometry{}, grid);
  const std::vector<ground::Candidate> sky = terminal.candidates(
      s.catalog(), time::JulianDate::from_unix_seconds(grid.slot_mid(slot)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        identifier.identify_isolated(terminal, slot, isolated, sky));
  }
}

void BM_IdentifySlot(benchmark::State& state) {
  IdentifySlot(state, bench::full_scenario());
}
BENCHMARK(BM_IdentifySlot);

void BM_IdentifySlotGen2(benchmark::State& state) {
  IdentifySlot(state, bench::gen2_scenario());
}
BENCHMARK(BM_IdentifySlotGen2)->Name("BM_IdentifySlot/gen2");

/// Full-scale slots per BM_PipelineRun iteration (five minutes of one
/// terminal).
constexpr int kPipelineSlots = 20;

void PipelineRun(benchmark::State& state, const core::Scenario& s) {
  // The §4 pipeline end to end for one terminal: per slot the sky query
  // and allocation, painting the frame, and identification against that
  // same sky. The per-slot sum the layer benches above only bound.
  const core::InferencePipeline pipeline(s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pipeline.run(0, kPipelineSlots * s.grid().period_seconds()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kPipelineSlots);
}

void BM_PipelineRun(benchmark::State& state) {
  PipelineRun(state, bench::full_scenario());
}
BENCHMARK(BM_PipelineRun)->Unit(benchmark::kMillisecond);

void BM_PipelineRunGen2(benchmark::State& state) {
  PipelineRun(state, bench::gen2_scenario());
}
BENCHMARK(BM_PipelineRunGen2)
    ->Name("BM_PipelineRun/gen2")
    ->Unit(benchmark::kMillisecond);

void BM_ObstructionMapXor(benchmark::State& state) {
  obsmap::ObstructionMap a, b;
  for (int i = 0; i < 123; ++i) {
    a.set(i, (i * 7) % 123);
    b.set(i, (i * 13) % 123);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.exclusive_or(b));
  }
}
BENCHMARK(BM_ObstructionMapXor);

void BM_IsolateTrajectory(benchmark::State& state) {
  // The frame work identify_isolated does on the XOR of two recorded
  // consecutive slots, before any candidate is scored: connected
  // components, painting the dominant one, and chaining its pixels.
  const core::Scenario& s = bench::full_scenario();
  const ground::Terminal& terminal = s.terminal(0);
  obsmap::MapRecorder recorder(s.catalog(), terminal, s.grid());
  time::SlotIndex slot = s.first_slot();
  const auto record_next_allocated = [&] {
    std::optional<scheduler::Allocation> serving;
    while (!serving.has_value()) {
      serving = s.global_scheduler().allocate(terminal, slot++);
    }
    return recorder.record_slot(serving);
  };
  const obsmap::ObstructionMap prev = record_next_allocated();
  const obsmap::ObstructionMap isolated =
      record_next_allocated().exclusive_or(prev);
  const obsmap::MapGeometry geometry;
  for (auto _ : state) {
    const std::vector<std::vector<obsmap::Pixel>> components =
        obsmap::connected_components(isolated);
    obsmap::ObstructionMap dominant;
    for (const obsmap::Pixel& p : components.front()) dominant.set(p);
    benchmark::DoNotOptimize(match::extract_trajectory(dominant, geometry));
  }
}
BENCHMARK(BM_IsolateTrajectory);

void BM_MannWhitney(benchmark::State& state) {
  std::mt19937 rng(11);
  std::normal_distribution<double> d(30.0, 2.0);
  std::vector<double> a(750), b(750);
  for (auto& x : a) x = d(rng);
  for (auto& x : b) x = d(rng) + 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::mann_whitney_u(a, b));
  }
}
BENCHMARK(BM_MannWhitney);

void BM_ForestPredict(benchmark::State& state) {
  // A small synthetic classification task resembling the §6 feature layout.
  static const ml::RandomForest forest = [] {
    ml::Dataset d(32);
    std::mt19937 rng(13);
    std::uniform_real_distribution<double> u(0.0, 1.0);
    for (int i = 0; i < 2000; ++i) {
      std::vector<double> row(32);
      for (double& v : row) v = u(rng);
      d.add_row(row, row[3] > 0.5 ? 1 : 0);
    }
    ml::ForestConfig cfg;
    cfg.num_trees = 80;
    ml::RandomForest f(cfg);
    f.fit(d);
    return f;
  }();
  std::vector<double> row(32, 0.4);
  for (auto _ : state) {
    row[3] = row[3] > 0.5 ? 0.2 : 0.8;
    benchmark::DoNotOptimize(forest.predict_proba(row));
  }
}
BENCHMARK(BM_ForestPredict);

void BM_ForestFit(benchmark::State& state) {
  // Per-tree parallel training (the §6 model) at 1/2/8 exec threads.
  exec::configure({static_cast<int>(state.range(0))});
  static const ml::Dataset data = [] {
    ml::Dataset d(16);
    std::mt19937 rng(17);
    std::uniform_real_distribution<double> u(0.0, 1.0);
    for (int i = 0; i < 1000; ++i) {
      std::vector<double> row(16);
      for (double& v : row) v = u(rng);
      d.add_row(row, row[2] + row[9] > 1.0 ? 1 : 0);
    }
    return d;
  }();
  ml::ForestConfig cfg;
  cfg.num_trees = 40;
  for (auto _ : state) {
    ml::RandomForest forest(cfg);
    forest.fit(data);
    benchmark::DoNotOptimize(forest.trees().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          cfg.num_trees);
  exec::configure({});
}
BENCHMARK(BM_ForestFit)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ForestFitClusters(benchmark::State& state) {
  // The section-6 shape on one thread: a local hour plus 250 sparse
  // per-cluster counts, 250 classes, ~1,500 rows, 20 trees.
  exec::configure({1});
  static const ml::Dataset data = [] {
    constexpr int kClusters = 250;
    ml::Dataset d(1 + kClusters, {},
                  std::vector<std::string>(kClusters, "cluster"));
    std::mt19937 rng(29);
    std::uniform_int_distribution<int> cluster(0, kClusters - 1);
    std::uniform_int_distribution<int> popular(0, 24);
    std::uniform_int_distribution<int> visible(6, 14);
    for (int i = 0; i < 1500; ++i) {
      std::vector<double> row(1 + kClusters, 0.0);
      row[0] = static_cast<double>(i % 96) * 0.25;  // 15-min local hour
      int label = -1;
      const int n = visible(rng);
      for (int k = 0; k < n; ++k) {
        const int c = k % 2 == 0 ? popular(rng) : cluster(rng);
        row[1 + static_cast<std::size_t>(c)] += 1.0;
        if (label < 0 || (c < label && row[0] < 12.0)) label = c;
      }
      d.add_row(row, label);
    }
    return d;
  }();
  ml::ForestConfig cfg;
  cfg.num_trees = 20;
  for (auto _ : state) {
    ml::RandomForest forest(cfg);
    forest.fit(data);
    benchmark::DoNotOptimize(forest.trees().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          cfg.num_trees);
  exec::configure({});
}
BENCHMARK(BM_ForestFitClusters)
    ->Name("BM_ForestFit/clusters")
    ->Unit(benchmark::kMillisecond);

/// Console reporter that additionally records each benchmark's ns/op as a
/// named value on the run report.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  explicit CaptureReporter(obs::RunReport& report) : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.iterations <= 0) continue;
      const double ns_per_op = run.real_accumulated_time /
                               static_cast<double>(run.iterations) * 1e9;
      report_.add_value(run.benchmark_name() + "_ns_per_op", ns_per_op);
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  obs::RunReport& report_;
};

}  // namespace

int main(int argc, char** argv) {
  bench::ReportSink sink(argc, argv, "BENCH_perf.json");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

  obs::RunReport report;
  report.kind = "bench";
  report.label = "perf_microbench";
  const obs::Stopwatch timer;
  CaptureReporter reporter(report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  report.wall_ns = timer.elapsed_ns();
  sink.add(std::move(report));

  benchmark::Shutdown();
  return 0;
}
