#include "measurement/latency_model.hpp"

#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace starlab::measurement {
namespace {

using starlab::testing::small_scenario;

class LatencyModelTest : public ::testing::Test {
 protected:
  LatencyModelTest()
      : model_(small_scenario().catalog(), small_scenario().mac_scheduler()) {}

  scheduler::Allocation alloc_for_slot(time::SlotIndex offset) const {
    const auto a = small_scenario().global_scheduler().allocate(
        small_scenario().terminal(0), small_scenario().first_slot() + offset);
    EXPECT_TRUE(a.has_value());
    return *a;
  }

  LatencyModel model_;
};

TEST_F(LatencyModelTest, PropagationIsPhysicallyPlausible) {
  const auto alloc = alloc_for_slot(0);
  const double t = small_scenario().grid().slot_mid(alloc.slot);
  const double prop =
      model_.propagation_ms(small_scenario().terminal(0), alloc, t);
  // Two bent-pipe hops up+down at 550-1200 km slant each: 7.3-16 ms
  // round-trip.
  EXPECT_GT(prop, 6.0);
  EXPECT_LT(prop, 18.0);
}

TEST_F(LatencyModelTest, RttIncludesGroundProcessing) {
  const auto alloc = alloc_for_slot(1);
  const double t = small_scenario().grid().slot_mid(alloc.slot);
  const double rtt =
      model_.rtt_ms(small_scenario().terminal(0), alloc, t, 0);
  const double prop =
      model_.propagation_ms(small_scenario().terminal(0), alloc, t);
  EXPECT_GT(rtt, prop + kGroundProcessingMs - 2.0);
  // Paper Fig 2 range: ~20-70 ms.
  EXPECT_GT(rtt, 15.0);
  EXPECT_LT(rtt, 80.0);
}

TEST_F(LatencyModelTest, RttDeterministicPerProbe) {
  const auto alloc = alloc_for_slot(2);
  const double t = small_scenario().grid().slot_mid(alloc.slot);
  EXPECT_DOUBLE_EQ(model_.rtt_ms(small_scenario().terminal(0), alloc, t, 7),
                   model_.rtt_ms(small_scenario().terminal(0), alloc, t, 7));
}

TEST_F(LatencyModelTest, JitterVariesAcrossProbes) {
  const auto alloc = alloc_for_slot(3);
  const double t = small_scenario().grid().slot_mid(alloc.slot);
  const double a = model_.rtt_ms(small_scenario().terminal(0), alloc, t, 1);
  const double b = model_.rtt_ms(small_scenario().terminal(0), alloc, t, 2);
  EXPECT_NE(a, b);
}

TEST_F(LatencyModelTest, LossRateNearConfigured) {
  const auto alloc = alloc_for_slot(4);
  std::size_t lost = 0;
  const std::size_t n = 20000;
  for (std::uint64_t p = 0; p < n; ++p) {
    if (model_.lost(small_scenario().terminal(0), alloc, p)) ++lost;
  }
  const double rate = static_cast<double>(lost) / n;
  // Between base and base + boost depending on elevation.
  EXPECT_GT(rate, 0.0005);
  EXPECT_LT(rate, 0.05);
}

TEST_F(LatencyModelTest, LowerElevationLosesMore) {
  scheduler::Allocation low = alloc_for_slot(5);
  scheduler::Allocation high = low;
  low.look.elevation_deg = 26.0;
  high.look.elevation_deg = 88.0;
  std::size_t lost_low = 0, lost_high = 0;
  const std::size_t n = 30000;
  for (std::uint64_t p = 0; p < n; ++p) {
    if (model_.lost(small_scenario().terminal(0), low, p)) ++lost_low;
    if (model_.lost(small_scenario().terminal(0), high, p)) ++lost_high;
  }
  EXPECT_GT(lost_low, lost_high);
}

TEST_F(LatencyModelTest, HigherSatelliteShorterRtt) {
  // Propagation-only comparison: zenith-ish satellite beats horizon one.
  scheduler::Allocation a = alloc_for_slot(6);
  // Find two slots with clearly different serving elevations.
  scheduler::Allocation best = a, worst = a;
  for (time::SlotIndex k = 0; k < 60; ++k) {
    const auto alloc = small_scenario().global_scheduler().allocate(
        small_scenario().terminal(0), small_scenario().first_slot() + k);
    if (!alloc) continue;
    if (alloc->look.elevation_deg > best.look.elevation_deg) best = *alloc;
    if (alloc->look.elevation_deg < worst.look.elevation_deg) worst = *alloc;
  }
  if (best.look.elevation_deg - worst.look.elevation_deg > 20.0) {
    const double t_best = small_scenario().grid().slot_mid(best.slot);
    const double t_worst = small_scenario().grid().slot_mid(worst.slot);
    EXPECT_LT(
        model_.propagation_ms(small_scenario().terminal(0), best, t_best),
        model_.propagation_ms(small_scenario().terminal(0), worst, t_worst) +
            2.0);
  }
}

}  // namespace
}  // namespace starlab::measurement
