// One sky query per (terminal, slot).
//
// InferencePipeline::run queries the terminal's sky once per slot, allocates
// from it and hands the whole of it to the identifier. The reference here is
// a test-local copy of run()'s slot loop whose sky comes from the exhaustive
// Catalog::visible_from_scan at the slot midpoint, annotated with the
// terminal's mask and GSO flags, and whose identifier is handed that sky.
// run()'s rows must equal the reference's bit for bit: on every slot of a
// 1/8-scale Gen1 and Gen2 window, for all four terminals, clean and under
// dropped and corrupted frames.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "core/pipeline.hpp"
#include "fault/injectors.hpp"
#include "match/identifier.hpp"
#include "obsmap/painter.hpp"
#include "test_helpers.hpp"

namespace starlab::core {
namespace {

using starlab::testing::tiny_gen2_scenario;
using starlab::testing::tiny_scenario;

constexpr double kWindowSec = 900.0;

/// The sky at the slot midpoint from the exhaustive scan, flagged as the
/// terminal flags it: every entry above the floor, usable or not.
std::vector<ground::Candidate> scan_sky(const Scenario& sc,
                                        const ground::Terminal& terminal,
                                        time::SlotIndex slot) {
  std::vector<ground::Candidate> out;
  for (const constellation::SkyEntry& e : sc.catalog().visible_from_scan(
           terminal.site(),
           time::JulianDate::from_unix_seconds(sc.grid().slot_mid(slot)),
           terminal.min_elevation())) {
    ground::Candidate c;
    c.sky = e;
    c.obstructed =
        terminal.mask().blocked(e.look.azimuth(), e.look.elevation());
    c.gso_excluded = terminal.gso_arc().excluded(
        e.look.azimuth(), e.look.elevation(), ground::kGsoProtection);
    out.push_back(c);
  }
  return out;
}

/// run()'s slot loop, with the scan's sky for allocation and identification.
std::vector<SlotIdentification> replay_with_scan_sky(
    const Scenario& sc, std::size_t terminal_index,
    const fault::FaultPlan& plan) {
  const ground::Terminal& terminal = sc.terminal(terminal_index);
  const time::SlotGrid& grid = sc.grid();
  const obsmap::MapGeometry geometry;
  obsmap::MapRecorder recorder(sc.catalog(), terminal, grid,
                               obsmap::TrajectoryPainter(geometry));
  const match::SatelliteIdentifier identifier(sc.catalog(), geometry, grid);
  const fault::FrameFaultInjector faults(plan);
  const time::SlotIndex first = sc.first_slot();
  const auto num_slots =
      static_cast<time::SlotIndex>(kWindowSec / grid.period_seconds());
  const auto slots_per_reset = static_cast<time::SlotIndex>(
      PipelineConfig{}.reset_interval_sec / grid.period_seconds());

  std::vector<SlotIdentification> rows;
  std::optional<obsmap::ObstructionMap> prev;
  bool missed_since_prev = false;
  for (time::SlotIndex s = first; s < first + num_slots; ++s) {
    if ((s - first) % slots_per_reset == 0 && s != first) {
      recorder.reset();
      prev.reset();
      missed_since_prev = false;
    }
    const std::vector<ground::Candidate> sky = scan_sky(sc, terminal, s);
    const std::optional<scheduler::Allocation> truth =
        sc.global_scheduler().allocate_from(terminal, s, sky);
    obsmap::ObstructionMap frame = recorder.record_slot(truth);

    SlotIdentification row;
    row.slot = s;
    if (truth.has_value()) row.truth_norad = truth->norad_id;
    std::copy_if(sky.begin(), sky.end(), std::back_inserter(row.sky),
                 [](const ground::Candidate& c) { return c.usable(); });
    if (faults.frame_dropped(terminal_index, s)) {
      row.quality |= quality::kFrameMissing;
      rows.push_back(std::move(row));
      missed_since_prev = true;
      continue;
    }
    if (faults.corrupt(frame, terminal_index, s) > 0) {
      row.quality |= quality::kFrameCorrupted;
    }
    if (prev.has_value()) {
      if (missed_since_prev) row.quality |= quality::kStaleBaseline;
      const match::Identification id =
          identifier.identify(terminal, s, *prev, frame, sky);
      row.num_candidates = id.num_candidates;
      row.trajectory_pixels = id.trajectory_pixels;
      row.confidence = id.confidence;
      row.abstain = id.abstain;
      if (id.abstained()) row.quality |= quality::kAbstained;
      if (id.reset_detected) row.quality |= quality::kResetDetected;
      if (id.best.has_value()) {
        row.inferred_norad = id.best->norad_id;
        row.dtw = id.best->dtw;
      }
      rows.push_back(std::move(row));
    }
    prev = std::move(frame);
    missed_since_prev = false;
  }
  return rows;
}

void expect_same_sky(const std::vector<ground::Candidate>& a,
                     const std::vector<ground::Candidate>& b,
                     time::SlotIndex slot) {
  ASSERT_EQ(a.size(), b.size()) << "slot " << slot;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const constellation::SkyEntry& x = a[i].sky;
    const constellation::SkyEntry& y = b[i].sky;
    EXPECT_EQ(x.catalog_index, y.catalog_index) << "slot " << slot;
    EXPECT_EQ(x.norad_id, y.norad_id) << "slot " << slot;
    EXPECT_EQ(x.look.azimuth_deg, y.look.azimuth_deg) << "slot " << slot;
    EXPECT_EQ(x.look.elevation_deg, y.look.elevation_deg) << "slot " << slot;
    EXPECT_EQ(x.look.range_km, y.look.range_km) << "slot " << slot;
    EXPECT_EQ(x.sunlit, y.sunlit) << "slot " << slot;
    EXPECT_EQ(x.age_days, y.age_days) << "slot " << slot;
    EXPECT_EQ(a[i].obstructed, b[i].obstructed) << "slot " << slot;
    EXPECT_EQ(a[i].gso_excluded, b[i].gso_excluded) << "slot " << slot;
  }
}

/// Quality flags seen over every compared row, and how many rows scored a
/// sky that held an unusable entry (where a usable-only sky would differ).
struct Tally {
  std::uint32_t flags = 0;
  int identified = 0;
  int unusable_in_view = 0;
};

void expect_run_matches_replay(const Scenario& sc,
                               const fault::FaultPlan& plan, Tally& tally) {
  PipelineConfig config;
  config.faults = plan;
  const InferencePipeline pipeline(sc, config);
  for (std::size_t t = 0; t < sc.terminals().size(); ++t) {
    const std::vector<SlotIdentification> got =
        pipeline.run(t, kWindowSec).rows;
    const std::vector<SlotIdentification> want =
        replay_with_scan_sky(sc, t, plan);
    ASSERT_EQ(got.size(), want.size()) << "terminal " << t;
    for (std::size_t i = 0; i < got.size(); ++i) {
      const SlotIdentification& x = got[i];
      const SlotIdentification& y = want[i];
      ASSERT_EQ(x.slot, y.slot) << "terminal " << t << " row " << i;
      EXPECT_EQ(x.truth_norad, y.truth_norad) << "slot " << x.slot;
      EXPECT_EQ(x.inferred_norad, y.inferred_norad) << "slot " << x.slot;
      EXPECT_EQ(x.dtw, y.dtw) << "slot " << x.slot;  // bitwise
      EXPECT_EQ(x.num_candidates, y.num_candidates) << "slot " << x.slot;
      EXPECT_EQ(x.trajectory_pixels, y.trajectory_pixels) << "slot " << x.slot;
      EXPECT_EQ(x.quality, y.quality) << "slot " << x.slot;
      EXPECT_EQ(x.confidence, y.confidence) << "slot " << x.slot;
      EXPECT_EQ(x.abstain, y.abstain) << "slot " << x.slot;
      expect_same_sky(x.sky, y.sky, x.slot);

      tally.flags |= x.quality;
      if (x.num_candidates > 0) {
        ++tally.identified;
        if (static_cast<std::size_t>(x.num_candidates) > x.sky.size()) {
          ++tally.unusable_in_view;
        }
      }
    }
  }
}

fault::FaultPlan faulted_frames() {
  fault::FaultPlan plan;
  plan.frame.drop_rate = 0.15;
  plan.frame.bit_flip_rate = 0.001;
  return plan;
}

TEST(PipelineSky, RunMatchesScanSkyReplayOnGen1Window) {
  Tally tally;
  expect_run_matches_replay(tiny_scenario(), fault::FaultPlan{}, tally);
  EXPECT_GT(tally.identified, 150);
  // The identifier must see the unusable entries too.
  EXPECT_GT(tally.unusable_in_view, 10);
}

TEST(PipelineSky, RunMatchesScanSkyReplayOnGen2Window) {
  Tally tally;
  expect_run_matches_replay(tiny_gen2_scenario(), fault::FaultPlan{}, tally);
  EXPECT_GT(tally.identified, 150);
  EXPECT_GT(tally.unusable_in_view, 10);
}

TEST(PipelineSky, RunMatchesScanSkyReplayUnderFrameFaults) {
  // Dropped polls leave stale baselines. A corrupted baseline loses its
  // flipped pixels in the next frame, but those are isolated pixels, not a
  // wiped streak, so no slot is taken for a reboot: this run has none.
  for (const Scenario* sc : {&tiny_scenario(), &tiny_gen2_scenario()}) {
    Tally tally;
    expect_run_matches_replay(*sc, faulted_frames(), tally);
    EXPECT_GT(tally.identified, 100);
    for (const std::uint32_t flag :
         {quality::kFrameMissing, quality::kFrameCorrupted,
          quality::kStaleBaseline}) {
      EXPECT_NE(tally.flags & flag, 0u) << "flag " << flag << " never seen";
    }
    EXPECT_EQ(tally.flags & quality::kResetDetected, 0u)
        << "a reset was detected in a run without a reboot";
  }
}

}  // namespace
}  // namespace starlab::core
