#include "time/slot_grid.hpp"

#include <gtest/gtest.h>

#include "time/utc_time.hpp"

namespace starlab::time {
namespace {

TEST(SlotGrid, BoundariesFallAtPaperSeconds) {
  // The paper: changes at the 12th, 27th, 42nd and 57th second past every
  // minute.
  const SlotGrid grid;  // 15 s period, 12 s offset
  const double minute_start = (UtcTime{2023, 6, 1, 5, 38, 0.0}).to_unix_seconds();

  const SlotIndex s = grid.slot_of(minute_start + 13.0);
  const double start = grid.slot_start(s);
  const UtcTime st = UtcTime::from_unix_seconds(start);
  EXPECT_EQ(static_cast<int>(st.second) % 15, 12);
}

TEST(SlotGrid, SlotOfIsLeftInclusive) {
  const SlotGrid grid;
  const double boundary = grid.slot_start(1000);
  EXPECT_EQ(grid.slot_of(boundary), 1000);
  EXPECT_EQ(grid.slot_of(boundary - 1e-6), 999);
  EXPECT_EQ(grid.slot_of(boundary + 14.999), 1000);
  EXPECT_EQ(grid.slot_of(boundary + 15.0), 1001);
}

TEST(SlotGrid, StartEndMidConsistency) {
  const SlotGrid grid;
  for (SlotIndex s : {SlotIndex{0}, SlotIndex{7}, SlotIndex{123456789}}) {
    EXPECT_DOUBLE_EQ(grid.slot_end(s), grid.slot_start(s + 1));
    EXPECT_DOUBLE_EQ(grid.slot_mid(s), grid.slot_start(s) + 7.5);
    EXPECT_EQ(grid.slot_of(grid.slot_mid(s)), s);
  }
}

TEST(SlotGrid, SecondsToNextBoundary) {
  const SlotGrid grid;
  const double start = grid.slot_start(42);
  const auto to_next = [&](double t) {
    return grid.slot_end(grid.slot_of(t)) - t;
  };
  EXPECT_NEAR(to_next(start + 5.0), 10.0, 1e-9);
  EXPECT_NEAR(to_next(start + 14.5), 0.5, 1e-9);
}

TEST(SlotGrid, NearBoundary) {
  const SlotGrid grid;
  const double start = grid.slot_start(42);
  EXPECT_TRUE(grid.near_boundary(start + 0.3, 0.5));
  EXPECT_TRUE(grid.near_boundary(start + 14.8, 0.5));
  EXPECT_FALSE(grid.near_boundary(start + 7.5, 0.5));
}

TEST(SlotGrid, CustomPeriodAndOffset) {
  const SlotGrid grid(30.0, 5.0);
  EXPECT_DOUBLE_EQ(grid.slot_start(0), 5.0);
  EXPECT_DOUBLE_EQ(grid.slot_start(2), 65.0);
  EXPECT_EQ(grid.slot_of(64.9), 1);
}

TEST(SlotGrid, NegativeTimesStillGrid) {
  const SlotGrid grid;
  const SlotIndex s = grid.slot_of(-100.0);
  EXPECT_LE(grid.slot_start(s), -100.0);
  EXPECT_GT(grid.slot_end(s), -100.0);
}

// Property sweep: slot_of(slot_start(k)) == k for many k and several grids.
class SlotGridRoundTrip
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(SlotGridRoundTrip, StartMapsBackToSlot) {
  const auto [period, offset] = GetParam();
  const SlotGrid grid(period, offset);
  for (SlotIndex k = -1000; k <= 1000; k += 37) {
    EXPECT_EQ(grid.slot_of(grid.slot_start(k)), k)
        << "period=" << period << " offset=" << offset << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grids, SlotGridRoundTrip,
    ::testing::Values(std::pair{15.0, 12.0}, std::pair{15.0, 0.0},
                      std::pair{30.0, 7.0}, std::pair{5.0, 2.5}));

}  // namespace
}  // namespace starlab::time
