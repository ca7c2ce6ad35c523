#include "measurement/changepoint.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "scheduler/stochastic.hpp"
#include "test_helpers.hpp"

namespace starlab::measurement {
namespace {

/// Synthetic step series: level changes every `period` s at `offset` phase,
/// sampled at 50 Hz with small noise. Levels jump by several ms.
RttSeries synthetic_steps(double duration_sec, double period, double offset,
                          double noise_ms = 0.2) {
  RttSeries series;
  series.terminal = "synthetic";
  series.interval_ms = 20.0;
  const time::SlotGrid grid(period, offset);
  std::uint64_t n = 0;
  for (double t = 1000.0; t < 1000.0 + duration_sec; t += 0.02, ++n) {
    RttSample s;
    s.unix_sec = t;
    s.slot = grid.slot_of(t);
    // Slot-dependent level in 25..45 ms, plus deterministic "noise".
    const double level =
        25.0 + 20.0 * scheduler::uniform01(scheduler::mix_keys(
                          99, static_cast<std::uint64_t>(s.slot)));
    const double wiggle =
        noise_ms * (scheduler::uniform01(scheduler::mix_keys(5, n)) - 0.5);
    s.rtt_ms = level + wiggle;
    series.samples.push_back(s);
  }
  return series;
}

TEST(ChangePoint, DetectsSyntheticSteps) {
  const RttSeries series = synthetic_steps(120.0, 15.0, 12.0);
  const auto changes = detect_change_points(series);
  // 120 s / 15 s: ~7 internal boundaries; most levels differ enough.
  EXPECT_GE(changes.size(), 5u);
  EXPECT_LE(changes.size(), 9u);
}

TEST(ChangePoint, ChangesAlignWithBoundaries) {
  const RttSeries series = synthetic_steps(120.0, 15.0, 12.0);
  const time::SlotGrid grid(15.0, 12.0);
  for (const ChangePoint& c : detect_change_points(series)) {
    EXPECT_TRUE(grid.near_boundary(c.unix_sec, 1.5))
        << "change at " << c.unix_sec;
  }
}

TEST(ChangePoint, QuietSeriesHasNoChanges) {
  RttSeries series;
  series.interval_ms = 20.0;
  std::uint64_t n = 0;
  for (double t = 0.0; t < 60.0; t += 0.02, ++n) {
    RttSample s;
    s.unix_sec = t;
    s.rtt_ms = 30.0 + 0.1 * scheduler::uniform01(scheduler::mix_keys(1, n));
    series.samples.push_back(s);
  }
  EXPECT_TRUE(detect_change_points(series).empty());
}

TEST(ChangePoint, TooFewSamplesIsEmpty) {
  RttSeries series;
  for (int i = 0; i < 5; ++i) {
    series.samples.push_back({static_cast<double>(i), 30.0, false, 0});
  }
  EXPECT_TRUE(detect_change_points(series).empty());
}

TEST(ChangePoint, RespectsMinSeparation) {
  const RttSeries series = synthetic_steps(120.0, 15.0, 12.0);
  const auto changes = detect_change_points(series);
  ASSERT_GT(changes.size(), 1u);
  for (std::size_t i = 1; i < changes.size(); ++i) {
    EXPECT_GE(changes[i].unix_sec - changes[i - 1].unix_sec,
              kMinChangeSeparationSec);
  }
}

TEST(EpochEstimate, RecoversPeriodAndOffset) {
  const RttSeries series = synthetic_steps(300.0, 15.0, 12.0);
  const auto changes = detect_change_points(series);
  const EpochEstimate est = estimate_epoch(changes);
  EXPECT_NEAR(est.period_sec, 15.0, 0.5);
  // Offset is modulo the period.
  const double phase = std::fmod(est.offset_sec, 15.0);
  EXPECT_TRUE(std::fabs(phase - 12.0) < 1.0 || std::fabs(phase - 12.0) > 14.0)
      << "phase " << phase;
  EXPECT_GT(est.support, 0.7);
}

TEST(EpochEstimate, RecoversNonPaperGrid) {
  const RttSeries series = synthetic_steps(300.0, 20.0, 5.0);
  const auto changes = detect_change_points(series);
  const EpochEstimate est = estimate_epoch(changes);
  EXPECT_NEAR(est.period_sec, 20.0, 0.5);
}

TEST(EpochEstimate, TooFewChangesGivesZeroSupport) {
  const EpochEstimate est = estimate_epoch({{10.0, 3.0}, {25.0, 3.0}});
  EXPECT_DOUBLE_EQ(est.support, 0.0);
}

TEST(EpochEstimate, EndToEndFromSimulatedProber) {
  // Full §3 inference on the simulated network: probe 5 minutes, detect
  // changes, recover the 15 s / :12 grid.
  using starlab::testing::small_scenario;
  const LatencyModel model(small_scenario().catalog(),
                           small_scenario().mac_scheduler());
  const RttProber prober(small_scenario().global_scheduler(), model);
  const double t0 =
      small_scenario().grid().slot_start(small_scenario().first_slot());
  const RttSeries series =
      prober.run(small_scenario().terminal(0), t0, t0 + 300.0);

  const auto changes = detect_change_points(series);
  EXPECT_GE(changes.size(), 8u);
  const EpochEstimate est = estimate_epoch(changes);
  EXPECT_NEAR(est.period_sec, 15.0, 0.5);

  // Express the recovered phase as seconds past the minute.
  const double t_ref = est.offset_sec;
  double second_of_minute = std::fmod(t_ref, 60.0);
  if (second_of_minute < 0.0) second_of_minute += 60.0;
  const double mod15 = std::fmod(second_of_minute, 15.0);
  EXPECT_TRUE(std::fabs(mod15 - 12.0) < 1.26 || std::fabs(mod15 - 12.0) > 13.7)
      << "recovered phase " << mod15;
}

}  // namespace
}  // namespace starlab::measurement
