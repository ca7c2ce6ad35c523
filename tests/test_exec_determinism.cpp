// The exec layer's central promise, end to end: every parallelized hot path
// (Catalog::propagate_all, run_campaign, RandomForest::fit) produces
// byte-identical output at any thread count, and the identification
// pipeline, which scores candidates serially, gives the same rows at every
// pool width. Each test computes a num_threads == 1 baseline and
// compares the num_threads in {2, 8} runs against it field by field with
// exact (bitwise) double equality. The pipeline tests also pin its
// spatial-index visibility to the shared-snapshot route run_campaign takes,
// and the campaign's per-slot stage cells are checked for exact counts.

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <sstream>
#include <vector>

#include "core/campaign.hpp"
#include "core/pipeline.hpp"
#include "exec/thread_pool.hpp"
#include "match/identifier.hpp"
#include "ml/random_forest.hpp"
#include "obs/config.hpp"
#include "obsmap/painter.hpp"
#include "test_helpers.hpp"

namespace starlab {
namespace {

using starlab::testing::tiny_scenario;

/// Restores the default pool to the hardware default on scope exit, so these
/// tests never leak a thread-count override into other suites.
struct PoolGuard {
  ~PoolGuard() { exec::configure({}); }
};

/// Returns obs to the null sink on scope exit.
struct ObsGuard {
  ~ObsGuard() { obs::set_config(obs::Config::disabled()); }
};

constexpr int kThreadCounts[] = {1, 2, 8};

TEST(ExecDeterminism, PropagateAllBitIdenticalAcrossThreadCounts) {
  const PoolGuard guard;
  const constellation::Catalog& catalog = tiny_scenario().catalog();
  const auto jd = time::JulianDate::from_unix_seconds(
      tiny_scenario().grid().slot_mid(tiny_scenario().first_slot()));

  exec::configure({1});
  const std::vector<constellation::Catalog::Snapshot> baseline =
      catalog.propagate_all(jd);
  ASSERT_FALSE(baseline.empty());

  for (const int nt : kThreadCounts) {
    exec::configure({nt});
    const std::vector<constellation::Catalog::Snapshot> snaps =
        catalog.propagate_all(jd);
    ASSERT_EQ(snaps.size(), baseline.size()) << "threads=" << nt;
    for (std::size_t i = 0; i < snaps.size(); ++i) {
      EXPECT_EQ(snaps[i].valid, baseline[i].valid);
      EXPECT_EQ(snaps[i].teme_km.x(), baseline[i].teme_km.x());
      EXPECT_EQ(snaps[i].teme_km.y(), baseline[i].teme_km.y());
      EXPECT_EQ(snaps[i].teme_km.z(), baseline[i].teme_km.z());
      EXPECT_EQ(snaps[i].ecef_km.x(), baseline[i].ecef_km.x());
      EXPECT_EQ(snaps[i].ecef_km.y(), baseline[i].ecef_km.y());
      EXPECT_EQ(snaps[i].ecef_km.z(), baseline[i].ecef_km.z());
      EXPECT_EQ(snaps[i].sunlit, baseline[i].sunlit);
    }
  }
}

void expect_rows_identical(const core::PipelineResult& a,
                           const core::PipelineResult& b, int nt) {
  ASSERT_EQ(a.rows.size(), b.rows.size()) << "threads=" << nt;
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    const core::SlotIdentification& x = a.rows[i];
    const core::SlotIdentification& y = b.rows[i];
    EXPECT_EQ(x.slot, y.slot) << "threads=" << nt << " row=" << i;
    EXPECT_EQ(x.truth_norad, y.truth_norad) << "row=" << i;
    EXPECT_EQ(x.inferred_norad, y.inferred_norad) << "row=" << i;
    EXPECT_EQ(x.dtw, y.dtw) << "row=" << i;  // exact: same bits or bust
    EXPECT_EQ(x.num_candidates, y.num_candidates) << "row=" << i;
    EXPECT_EQ(x.trajectory_pixels, y.trajectory_pixels) << "row=" << i;
    EXPECT_EQ(x.quality, y.quality) << "row=" << i;
    EXPECT_EQ(x.confidence, y.confidence) << "row=" << i;
    EXPECT_EQ(x.abstain, y.abstain) << "row=" << i;
  }
}

/// InferencePipeline::run's slot loop on clean frames, with visibility taken
/// from one propagate_all snapshot per slot (the route run_campaign shares
/// across terminals) instead of the spatial index run() queries.
core::PipelineResult replay_through_snapshots(
    const core::InferencePipeline& pipeline, std::size_t terminal_index,
    double duration_sec) {
  const core::Scenario& sc = pipeline.scenario();
  const ground::Terminal& terminal = sc.terminal(terminal_index);
  const time::SlotGrid& grid = sc.grid();
  const constellation::Catalog& catalog = sc.catalog();
  obsmap::MapRecorder recorder(catalog, terminal, grid,
                               obsmap::TrajectoryPainter(pipeline.geometry()));
  const match::SatelliteIdentifier identifier(catalog, pipeline.geometry(),
                                              grid);
  const auto num_slots =
      static_cast<time::SlotIndex>(duration_sec / grid.period_seconds());
  const auto slots_per_reset = static_cast<time::SlotIndex>(
      core::PipelineConfig{}.reset_interval_sec / grid.period_seconds());

  core::PipelineResult out;
  std::optional<obsmap::ObstructionMap> prev_frame;
  const time::SlotIndex first = sc.first_slot();
  for (time::SlotIndex s = first; s < first + num_slots; ++s) {
    if ((s - first) % slots_per_reset == 0 && s != first) {
      recorder.reset();
      prev_frame.reset();
    }
    const time::JulianDate jd =
        time::JulianDate::from_unix_seconds(grid.slot_mid(s));
    const std::vector<constellation::Catalog::Snapshot> snaps =
        catalog.propagate_all(jd);
    const std::optional<scheduler::Allocation> truth =
        sc.global_scheduler().allocate_from(
            terminal, s, terminal.candidates_from_snapshots(catalog, snaps, jd));
    obsmap::ObstructionMap frame = recorder.record_slot(truth);
    if (prev_frame.has_value()) {
      const match::Identification id =
          identifier.identify(terminal, s, *prev_frame, frame, snaps);
      core::SlotIdentification row;
      row.slot = s;
      if (truth.has_value()) row.truth_norad = truth->norad_id;
      row.num_candidates = id.num_candidates;
      row.trajectory_pixels = id.trajectory_pixels;
      row.confidence = id.confidence;
      row.abstain = id.abstain;
      if (id.abstained()) row.quality |= core::quality::kAbstained;
      if (id.reset_detected) row.quality |= core::quality::kResetDetected;
      if (id.best.has_value()) {
        row.inferred_norad = id.best->norad_id;
        row.dtw = id.best->dtw;
      }
      out.rows.push_back(row);
    }
    prev_frame = std::move(frame);
  }
  out.summarize();
  return out;
}

TEST(ExecDeterminism, PipelineBitIdenticalAcrossThreadCounts) {
  const PoolGuard guard;
  const core::InferencePipeline pipeline(tiny_scenario());

  exec::configure({1});
  const core::PipelineResult baseline = pipeline.run(0, 900.0);
  ASSERT_FALSE(baseline.rows.empty());
  ASSERT_GT(baseline.decided(), 0u);

  for (const int nt : kThreadCounts) {
    exec::configure({nt});
    expect_rows_identical(pipeline.run(0, 900.0), baseline, nt);
    // Same rows from the shared-snapshot route: the spatial-index query and
    // the whole-catalog propagation must agree bit for bit.
    expect_rows_identical(replay_through_snapshots(pipeline, 0, 900.0),
                          baseline, nt);
  }
}

TEST(ExecDeterminism, InferredCampaignAvailableMatchesSnapshotCandidates) {
  const PoolGuard guard;
  const core::Scenario& sc = tiny_scenario();
  const core::InferencePipeline pipeline(sc);

  for (const int nt : kThreadCounts) {
    exec::configure({nt});
    const core::CampaignData data = pipeline.run_inferred_campaign(300.0);
    ASSERT_FALSE(data.slots.empty()) << "threads=" << nt;
    for (std::size_t i = 0; i < data.slots.size(); ++i) {
      const core::SlotObs& row = data.slots[i];
      const time::JulianDate jd = time::JulianDate::from_unix_seconds(
          sc.grid().slot_mid(row.slot));
      std::vector<ground::Candidate> usable =
          sc.terminal(row.terminal_index)
              .candidates_from_snapshots(sc.catalog(),
                                         sc.catalog().propagate_all(jd), jd);
      std::erase_if(usable,
                    [](const ground::Candidate& c) { return !c.usable(); });
      ASSERT_EQ(row.available.size(), usable.size())
          << "threads=" << nt << " row=" << i;
      for (std::size_t c = 0; c < usable.size(); ++c) {
        const core::CandidateObs& a = row.available[c];
        const constellation::SkyEntry& e = usable[c].sky;
        EXPECT_EQ(a.norad_id, e.norad_id) << "row=" << i;
        EXPECT_EQ(a.azimuth_deg, e.look.azimuth_deg) << "row=" << i;
        EXPECT_EQ(a.elevation_deg, e.look.elevation_deg) << "row=" << i;
        EXPECT_EQ(a.age_days, e.age_days) << "row=" << i;
        EXPECT_EQ(a.sunlit, e.sunlit) << "row=" << i;
      }
    }
  }
}

TEST(ExecDeterminism, CampaignBitIdenticalAcrossThreadCounts) {
  const PoolGuard guard;
  core::CampaignConfig cfg;
  cfg.duration_hours = 0.25;

  exec::configure({1});
  const core::CampaignData baseline = run_campaign(tiny_scenario(), cfg);
  ASSERT_FALSE(baseline.slots.empty());

  for (const int nt : kThreadCounts) {
    exec::configure({nt});
    const core::CampaignData data = run_campaign(tiny_scenario(), cfg);
    ASSERT_EQ(data.slots.size(), baseline.slots.size()) << "threads=" << nt;
    for (std::size_t i = 0; i < data.slots.size(); ++i) {
      const core::SlotObs& x = data.slots[i];
      const core::SlotObs& y = baseline.slots[i];
      EXPECT_EQ(x.slot, y.slot) << "threads=" << nt << " row=" << i;
      EXPECT_EQ(x.terminal_index, y.terminal_index) << "row=" << i;
      EXPECT_EQ(x.unix_mid, y.unix_mid) << "row=" << i;
      EXPECT_EQ(x.local_hour, y.local_hour) << "row=" << i;
      EXPECT_EQ(x.chosen, y.chosen) << "row=" << i;
      EXPECT_EQ(x.quality, y.quality) << "row=" << i;
      EXPECT_EQ(x.confidence, y.confidence) << "row=" << i;
      ASSERT_EQ(x.available.size(), y.available.size()) << "row=" << i;
      for (std::size_t c = 0; c < x.available.size(); ++c) {
        EXPECT_EQ(x.available[c].norad_id, y.available[c].norad_id);
        EXPECT_EQ(x.available[c].azimuth_deg, y.available[c].azimuth_deg);
        EXPECT_EQ(x.available[c].elevation_deg, y.available[c].elevation_deg);
        EXPECT_EQ(x.available[c].age_days, y.available[c].age_days);
        EXPECT_EQ(x.available[c].sunlit, y.available[c].sunlit);
      }
    }
    // The derived summary must agree too.
    EXPECT_EQ(data.report.decided, baseline.report.decided);
    EXPECT_EQ(data.report.degraded, baseline.report.degraded);
  }
}

// The campaign's stage cells: a slot's worker writes only that slot's
// cells and the serial flatten sums them, so at any thread count the stage
// calls are exact (candidates and allocate once per slot and terminal) and
// every stage timed something. Being in this
// suite puts the cells under the ThreadSanitizer job too.
TEST(ExecDeterminism, CampaignStageCallsExactAcrossThreadCounts) {
  const PoolGuard guard;
  const ObsGuard obs_guard;
  const core::Scenario& sc = tiny_scenario();
  core::CampaignConfig cfg;
  cfg.duration_hours = 0.25;
  const std::uint64_t slots = core::campaign_recorded_slots(sc, cfg);
  const std::uint64_t per_terminal = slots * sc.terminals().size();
  ASSERT_GT(slots, 0u);

  obs::set_config({/*metrics=*/true, /*tracing=*/false, /*profiling=*/false});
  for (const int nt : kThreadCounts) {
    exec::configure({nt});
    const core::CampaignData data = run_campaign(sc, cfg);
    const obs::RunReport& report = data.report;
    EXPECT_EQ(report.slots, per_terminal) << "threads=" << nt;
    EXPECT_GT(report.wall_ns, 0u) << "threads=" << nt;
    ASSERT_EQ(report.stages.size(), 2u) << "threads=" << nt;
    for (const obs::StageStat& st : report.stages) {
      EXPECT_EQ(st.calls, per_terminal)
          << "threads=" << nt << " stage=" << st.name;
      EXPECT_GT(st.wall_ns, 0u) << "threads=" << nt << " stage=" << st.name;
    }
  }
}

ml::Dataset blob_dataset() {
  ml::Dataset d(2, {"x", "y"}, {"a", "b", "c"});
  std::mt19937 rng(7);
  std::normal_distribution<double> noise(0.0, 0.8);
  for (int i = 0; i < 60; ++i) {
    d.add_row(std::vector<double>{noise(rng), noise(rng)}, 0);
    d.add_row(std::vector<double>{5.0 + noise(rng), noise(rng)}, 1);
    d.add_row(std::vector<double>{2.5 + noise(rng), 5.0 + noise(rng)}, 2);
  }
  return d;
}

TEST(ExecDeterminism, ForestBitIdenticalAcrossThreadCounts) {
  const PoolGuard guard;
  const ml::Dataset data = blob_dataset();
  ml::ForestConfig cfg;
  cfg.num_trees = 24;
  cfg.seed = 99;

  const auto fit_and_serialize = [&] {
    ml::RandomForest forest(cfg);
    forest.fit(data);
    std::ostringstream out;
    forest.save(out);
    return out.str();
  };

  exec::configure({1});
  const std::string baseline = fit_and_serialize();
  ASSERT_FALSE(baseline.empty());

  for (const int nt : kThreadCounts) {
    exec::configure({nt});
    // Byte for byte.
    EXPECT_EQ(fit_and_serialize(), baseline) << "threads=" << nt;
  }
}

}  // namespace
}  // namespace starlab
