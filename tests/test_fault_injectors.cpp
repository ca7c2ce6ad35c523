#include "fault/injectors.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "measurement/loss_model.hpp"

namespace starlab::fault {
namespace {

// ---------------------------------------------------------------------------
// FaultPlan schema
// ---------------------------------------------------------------------------

TEST(FaultPlan, DefaultPlanIsDisabled) {
  const FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
}

TEST(FaultPlan, AnyNonzeroRateEnables) {
  FaultPlan plan;
  plan.frame.drop_rate = 0.1;
  EXPECT_TRUE(plan.enabled());
  EXPECT_FALSE(plan.with_intensity(0.0).enabled());
}

TEST(FaultPlan, FormatParseRoundTrip) {
  FaultPlan plan;
  plan.seed = 777;
  plan.intensity = 0.5;
  plan.frame.drop_rate = 0.125;
  plan.frame.bit_flip_rate = 0.001;
  plan.rtt.extra_loss_rate = 0.05;
  plan.rtt.mean_burst_probes = 12.0;
  plan.rtt.spike_rate = 0.02;
  plan.rtt.spike_ms = 90.0;
  plan.clock.step_ms = 25.0;
  plan.clock.step_interval_sec = 1800.0;
  plan.clock.drift_ppm = 40.0;
  plan.dropout.rate = 0.07;

  const FaultPlan back = parse_fault_plan(format_fault_plan(plan));
  EXPECT_EQ(back.seed, plan.seed);
  EXPECT_EQ(back.intensity, plan.intensity);
  EXPECT_EQ(back.frame.drop_rate, plan.frame.drop_rate);
  EXPECT_EQ(back.frame.bit_flip_rate, plan.frame.bit_flip_rate);
  EXPECT_EQ(back.rtt.extra_loss_rate, plan.rtt.extra_loss_rate);
  EXPECT_EQ(back.rtt.mean_burst_probes, plan.rtt.mean_burst_probes);
  EXPECT_EQ(back.rtt.spike_rate, plan.rtt.spike_rate);
  EXPECT_EQ(back.rtt.spike_ms, plan.rtt.spike_ms);
  EXPECT_EQ(back.clock.step_ms, plan.clock.step_ms);
  EXPECT_EQ(back.clock.step_interval_sec, plan.clock.step_interval_sec);
  EXPECT_EQ(back.clock.drift_ppm, plan.clock.drift_ppm);
  EXPECT_EQ(back.dropout.rate, plan.dropout.rate);
}

TEST(FaultPlan, DefaultPlanFormatsEmptyAndParsesBack) {
  EXPECT_TRUE(format_fault_plan(FaultPlan{}).empty());
  const FaultPlan plan = parse_fault_plan("");
  EXPECT_EQ(plan.seed, FaultPlan{}.seed);
  EXPECT_FALSE(plan.enabled());
}

TEST(FaultPlan, ParseSkipsCommentsAndBlankLines) {
  const FaultPlan plan = parse_fault_plan(
      "# a comment\n"
      "\n"
      "  frame.drop_rate = 0.25  \n");
  EXPECT_EQ(plan.frame.drop_rate, 0.25);
}

TEST(FaultPlan, ParseRejectsUnknownKeyWithLineNumber) {
  try {
    (void)parse_fault_plan("intensity = 1\nframe.droprate = 0.5\n");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("frame.droprate"), std::string::npos) << what;
  }
}

TEST(FaultPlan, ParseRejectsMalformedLine) {
  EXPECT_THROW((void)parse_fault_plan("just some words\n"), std::runtime_error);
}

TEST(FaultPlan, ParseRejectsNonNumericValue) {
  try {
    (void)parse_fault_plan("frame.drop_rate = lots\n");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Frame faults
// ---------------------------------------------------------------------------

TEST(FrameFaults, DropDecisionsAreDeterministic) {
  FaultPlan plan;
  plan.frame.drop_rate = 0.3;
  const FrameFaultInjector a(plan);
  const FrameFaultInjector b(plan);
  for (time::SlotIndex s = 0; s < 500; ++s) {
    EXPECT_EQ(a.frame_dropped(1, s), b.frame_dropped(1, s)) << "slot " << s;
  }
}

TEST(FrameFaults, EmpiricalDropRateMatchesConfigured) {
  FaultPlan plan;
  plan.frame.drop_rate = 0.1;
  const FrameFaultInjector inj(plan);
  int dropped = 0;
  const int n = 20000;
  for (int s = 0; s < n; ++s) {
    if (inj.frame_dropped(0, s)) ++dropped;
  }
  EXPECT_NEAR(static_cast<double>(dropped) / n, 0.1, 0.01);
}

TEST(FrameFaults, IntensityScalesDropRate) {
  FaultPlan plan;
  plan.frame.drop_rate = 0.2;
  const FrameFaultInjector half(plan.with_intensity(0.5));
  int dropped = 0;
  const int n = 20000;
  for (int s = 0; s < n; ++s) {
    if (half.frame_dropped(0, s)) ++dropped;
  }
  EXPECT_NEAR(static_cast<double>(dropped) / n, 0.1, 0.01);
}

TEST(FrameFaults, IntensityZeroIsExactNoOp) {
  FaultPlan plan;
  plan.frame.drop_rate = 1.0;
  plan.frame.bit_flip_rate = 1.0;
  const FrameFaultInjector inj(plan.with_intensity(0.0));
  obsmap::ObstructionMap frame;
  frame.set(10, 10, true);
  for (time::SlotIndex s = 0; s < 100; ++s) {
    EXPECT_FALSE(inj.frame_dropped(0, s));
  }
  EXPECT_EQ(inj.corrupt(frame, 0, 0), 0u);
  EXPECT_EQ(frame.popcount(), 1);
}

TEST(FrameFaults, BitFlipCountMatchesRate) {
  FaultPlan plan;
  plan.frame.bit_flip_rate = 0.01;
  const FrameFaultInjector inj(plan);
  const int pixels = obsmap::ObstructionMap::kSize * obsmap::ObstructionMap::kSize;
  std::size_t total_flips = 0;
  const int frames = 40;
  for (int s = 0; s < frames; ++s) {
    obsmap::ObstructionMap frame;  // all clear
    const std::size_t flips = inj.corrupt(frame, 0, s);
    // Every reported flip must really be a set pixel of the blank frame.
    EXPECT_EQ(static_cast<std::size_t>(frame.popcount()), flips);
    total_flips += flips;
  }
  const double rate =
      static_cast<double>(total_flips) / (static_cast<double>(pixels) * frames);
  EXPECT_NEAR(rate, 0.01, 0.002);
}

// ---------------------------------------------------------------------------
// Per-slot satellite dropout
// ---------------------------------------------------------------------------

TEST(SlotDropout, EmpiricalRateAndDeterminism) {
  FaultPlan plan;
  plan.dropout.rate = 0.05;
  const SlotDropoutInjector a(plan);
  const SlotDropoutInjector b(plan);
  int dropped = 0;
  const int n = 40000;
  for (int s = 0; s < n; ++s) {
    const bool d = a.dropped(44713, s);
    EXPECT_EQ(d, b.dropped(44713, s));
    if (d) ++dropped;
  }
  EXPECT_NEAR(static_cast<double>(dropped) / n, 0.05, 0.007);
}

TEST(SlotDropout, DifferentSatellitesDrawIndependently) {
  FaultPlan plan;
  plan.dropout.rate = 0.5;
  const SlotDropoutInjector inj(plan);
  int diffs = 0;
  for (int s = 0; s < 2000; ++s) {
    if (inj.dropped(100, s) != inj.dropped(200, s)) ++diffs;
  }
  EXPECT_GT(diffs, 0);
}

// ---------------------------------------------------------------------------
// RTT faults: Gilbert-Elliott overlay + spikes
// ---------------------------------------------------------------------------

measurement::RttSeries clean_series(std::size_t n, double rtt_ms = 40.0) {
  measurement::RttSeries series;
  series.terminal = "test";
  for (std::size_t i = 0; i < n; ++i) {
    measurement::RttSample s;
    s.unix_sec = static_cast<double>(i) * 0.02;
    s.rtt_ms = rtt_ms;
    series.samples.push_back(s);
  }
  return series;
}

TEST(RttFaults, OverlayStationaryLossMatchesConfiguredRate) {
  FaultPlan plan;
  plan.rtt.extra_loss_rate = 0.05;
  plan.rtt.mean_burst_probes = 20.0;
  const RttFaultInjector inj(plan);
  const measurement::GilbertElliottConfig cfg = inj.overlay_config();
  EXPECT_EQ(cfg.loss_bad, 1.0);
  EXPECT_EQ(cfg.loss_good, 0.0);
  EXPECT_NEAR(cfg.p_bad_to_good, 1.0 / 20.0, 1e-12);
  const measurement::GilbertElliott chain(cfg);
  EXPECT_NEAR(chain.stationary_loss_rate(), 0.05, 1e-9);
}

TEST(RttFaults, AppliedMarginalLossAndBurstLengthMatchConfig) {
  FaultPlan plan;
  plan.rtt.extra_loss_rate = 0.05;
  plan.rtt.mean_burst_probes = 15.0;
  const RttFaultInjector inj(plan);

  measurement::RttSeries series = clean_series(200000);
  inj.apply(series);

  // Marginal loss within 30 % of the configured stationary rate.
  EXPECT_NEAR(series.loss_rate(), 0.05, 0.015);

  // Losses arrive in bursts whose mean length tracks mean_burst_probes
  // (geometric dwell in the Bad state => mean 1/p_bad_to_good).
  std::vector<int> runs;
  int run = 0;
  for (const measurement::RttSample& s : series.samples) {
    if (s.lost) {
      ++run;
    } else if (run > 0) {
      runs.push_back(run);
      run = 0;
    }
  }
  ASSERT_GT(runs.size(), 50u);
  double total = 0.0;
  for (const int r : runs) total += r;
  const double mean_burst = total / static_cast<double>(runs.size());
  EXPECT_NEAR(mean_burst, 15.0, 15.0 * 0.25);
}

TEST(RttFaults, SpikesHitReceivedProbesAtConfiguredRate) {
  FaultPlan plan;
  plan.rtt.spike_rate = 0.1;
  plan.rtt.spike_ms = 150.0;
  const RttFaultInjector inj(plan);

  measurement::RttSeries series = clean_series(30000, 40.0);
  inj.apply(series);

  int spiked = 0;
  for (const measurement::RttSample& s : series.samples) {
    EXPECT_FALSE(s.lost);  // no loss configured
    if (s.rtt_ms > 100.0) {
      EXPECT_NEAR(s.rtt_ms, 190.0, 1e-9);
      ++spiked;
    }
  }
  EXPECT_NEAR(static_cast<double>(spiked) / series.samples.size(), 0.1, 0.01);
}

TEST(RttFaults, IntensityZeroLeavesSeriesUntouched) {
  FaultPlan plan;
  plan.rtt.extra_loss_rate = 0.5;
  plan.rtt.spike_rate = 0.5;
  const RttFaultInjector inj(plan.with_intensity(0.0));
  measurement::RttSeries series = clean_series(1000);
  inj.apply(series);
  EXPECT_EQ(series.loss_rate(), 0.0);
  for (const measurement::RttSample& s : series.samples) {
    EXPECT_EQ(s.rtt_ms, 40.0);
  }
}

// ---------------------------------------------------------------------------
// Clock faults
// ---------------------------------------------------------------------------

TEST(ClockFaults, ZeroConfigMeansZeroOffset) {
  const ClockFaultInjector inj((FaultPlan()));
  EXPECT_EQ(inj.offset_sec(123456.0), 0.0);
}

TEST(ClockFaults, StepOffsetBoundedAndConstantWithinEpoch) {
  FaultPlan plan;
  plan.clock.step_ms = 50.0;
  plan.clock.step_interval_sec = 600.0;
  const ClockFaultInjector inj(plan);

  const double o1 = inj.offset_sec(10.0);
  const double o2 = inj.offset_sec(599.0);
  EXPECT_EQ(o1, o2);  // same sync epoch, no drift
  EXPECT_LE(std::fabs(o1), 0.05);

  // Different epochs redraw the step; over many epochs at least two differ.
  bool varied = false;
  for (int e = 1; e < 20 && !varied; ++e) {
    varied = inj.offset_sec(600.0 * e + 1.0) != o1;
  }
  EXPECT_TRUE(varied);
}

TEST(ClockFaults, DriftAccumulatesLinearlySinceSync) {
  FaultPlan plan;
  plan.clock.drift_ppm = 100.0;
  plan.clock.step_interval_sec = 3600.0;
  const ClockFaultInjector inj(plan);
  // 100 ppm over 1000 s since the epoch boundary = 0.1 s.
  EXPECT_NEAR(inj.offset_sec(1000.0) - inj.offset_sec(0.0), 0.1, 1e-12);
}

TEST(ClockFaults, ApplyRetimestampsSeries) {
  FaultPlan plan;
  plan.clock.step_ms = 1000.0;  // up to +/-1 s, easy to see
  plan.clock.step_interval_sec = 1e9;  // one epoch for the whole series
  const ClockFaultInjector inj(plan);
  measurement::RttSeries series = clean_series(10);
  const double offset = inj.offset_sec(0.0);
  inj.apply(series);
  for (std::size_t i = 0; i < series.samples.size(); ++i) {
    EXPECT_NEAR(series.samples[i].unix_sec,
                static_cast<double>(i) * 0.02 + offset, 1e-9);
  }
}

}  // namespace
}  // namespace starlab::fault
