#include "measurement/throughput.hpp"

#include <gtest/gtest.h>

#include <set>

#include "rf/link_budget.hpp"
#include "test_helpers.hpp"

namespace starlab::measurement {
namespace {

using starlab::testing::small_scenario;

ThroughputSeries run_minutes(double minutes) {
  const ThroughputProber prober(small_scenario().global_scheduler(),
                                small_scenario().mac_scheduler());
  const double t0 =
      small_scenario().grid().slot_start(small_scenario().first_slot());
  return prober.run(small_scenario().terminal(0), t0, t0 + minutes * 60.0);
}

TEST(Throughput, SampleCadence) {
  const ThroughputSeries s = run_minutes(2.0);
  EXPECT_EQ(s.samples.size(), 120u);
  EXPECT_EQ(s.terminal, "Iowa");
}

TEST(Throughput, GoodputBoundedByOfferAndCapacity) {
  const ThroughputSeries s = run_minutes(5.0);
  for (const ThroughputSample& x : s.samples) {
    EXPECT_GE(x.goodput_mbps, 0.0);
    EXPECT_LE(x.goodput_mbps, x.offered_mbps + 1e-9);
    if (x.capacity_mbps > 0.0) {
      EXPECT_LE(x.goodput_mbps, x.capacity_mbps + 1e-9);
    }
  }
}

TEST(Throughput, MeanGoodputReasonable) {
  const ThroughputSeries s = run_minutes(5.0);
  // 50 Mbit/s offered against a Ku link shared ~2-8 ways: most of the offer
  // should get through most of the time.
  EXPECT_GT(s.mean_goodput_mbps(), 20.0);
  EXPECT_LE(s.mean_goodput_mbps(), 50.0);
}

TEST(Throughput, CapacityChangesAtSlotBoundaries) {
  // Capacity share depends on the serving satellite and its MAC cycle, both
  // of which change per slot.
  const ThroughputSeries s = run_minutes(3.0);
  std::set<time::SlotIndex> slots;
  std::set<long> capacity_levels;
  for (const ThroughputSample& x : s.samples) {
    slots.insert(x.slot);
    capacity_levels.insert(std::lround(x.capacity_mbps / 10.0));
  }
  EXPECT_GE(slots.size(), 10u);
  EXPECT_GE(capacity_levels.size(), 3u);
}

TEST(Throughput, CapacityShareMatchesLinkBudgetScale) {
  const auto alloc = small_scenario().global_scheduler().allocate(
      small_scenario().terminal(0), small_scenario().first_slot());
  ASSERT_TRUE(alloc.has_value());
  const ThroughputProber prober(small_scenario().global_scheduler(),
                                small_scenario().mac_scheduler());
  const double share = prober.capacity_share_mbps(
      small_scenario().terminal(0), *alloc,
      small_scenario().grid().slot_mid(alloc->slot));
  const double full_link = rf::shannon_capacity_mbps(
      alloc->look.range(), 0.65);
  EXPECT_GT(share, 0.0);
  EXPECT_LT(share, full_link);  // cycle + load always take a cut
}

TEST(Throughput, Deterministic) {
  const ThroughputSeries a = run_minutes(1.0);
  const ThroughputSeries b = run_minutes(1.0);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); i += 13) {
    EXPECT_DOUBLE_EQ(a.samples[i].goodput_mbps, b.samples[i].goodput_mbps);
  }
}

}  // namespace
}  // namespace starlab::measurement
