#include "measurement/clock_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace starlab::measurement {
namespace {

TEST(ClockModel, OffsetBounded) {
  const ClockModel clock;
  // Max |offset|: residual + full-interval drift at 1.5x ppm + wander.
  const double bound = 0.5 + 30.0 * 1e-6 * 1024.0 * 1000.0 + 1.5 + 0.1;
  for (double t = 0.0; t < 5.0 * 3600.0; t += 97.0) {
    EXPECT_LT(std::fabs(clock.offset_ms(t)), bound) << "t=" << t;
  }
}

TEST(ClockModel, DriftsBetweenSyncs) {
  const ClockModel clock;
  // Within one sync epoch, offset changes monotonically by the drift.
  const double t0 = 100.0;  // safely inside epoch 0
  const double later = clock.offset_ms(t0 + 500.0) - clock.offset_ms(t0);
  // 500 s at 10..30 ppm: 5..15 ms, plus sub-ms wander movement.
  EXPECT_GT(later, 3.0);
  EXPECT_LT(later, 17.0);
}

TEST(ClockModel, SawtoothResetsAtSync) {
  const ClockModel clock;
  // Offset just before a correction minus just after it jumps back by
  // roughly the accumulated drift.
  const double sync = 1024.0;
  const double before = clock.offset_ms(sync - 1.0);
  const double after = clock.offset_ms(sync + 1.0);
  EXPECT_GT(before - after, 5.0);
}

TEST(ClockModel, RttErrorIsMicroscopic) {
  // The paper's RTT methodology survives clock error because both
  // timestamps come from the same clock: for a 40 ms RTT the error is the
  // drift over 40 ms (~a microsecond), not the absolute offset (~10 ms)
  // that a one-way delay against a perfect remote clock would carry.
  const ClockModel clock;
  for (double t = 50.0; t < 4000.0; t += 333.0) {
    const double rtt_err =
        std::fabs(clock.offset_ms(t + 40.0 / 1000.0) - clock.offset_ms(t));
    const double owd_err = std::fabs(clock.offset_ms(t));
    EXPECT_LT(rtt_err, 0.01) << "t=" << t;
    if (owd_err > 1.0) {
      EXPECT_LT(rtt_err, owd_err / 50.0) << "t=" << t;
    }
  }
}

TEST(ClockModel, DeterministicPerSeed) {
  const ClockModel a({}, 5);
  const ClockModel b({}, 5);
  const ClockModel c({}, 6);
  EXPECT_DOUBLE_EQ(a.offset_ms(777.0), b.offset_ms(777.0));
  EXPECT_NE(a.offset_ms(777.0), c.offset_ms(777.0));
}

TEST(ClockModel, WanderHasConfiguredPeriod) {
  ClockConfig cfg;
  cfg.drift_ppm = 0.0;
  cfg.residual_offset_ms = 0.0;
  cfg.wander_amplitude_ms = 2.0;
  cfg.wander_period_sec = 1000.0;
  const ClockModel clock(cfg);
  EXPECT_NEAR(clock.offset_ms(250.0), 2.0, 1e-9);   // quarter period: peak
  EXPECT_NEAR(clock.offset_ms(750.0), -2.0, 1e-9);  // three quarters: trough
  EXPECT_NEAR(clock.offset_ms(500.0), 0.0, 1e-9);
}

}  // namespace
}  // namespace starlab::measurement
