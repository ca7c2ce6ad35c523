#include "scheduler/global_scheduler.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "test_helpers.hpp"

namespace starlab::scheduler {
namespace {

using starlab::testing::small_scenario;
using starlab::testing::usable_candidates;

const GlobalScheduler& sched() { return small_scenario().global_scheduler(); }
const ground::Terminal& iowa() { return small_scenario().terminal(0); }

time::SlotIndex first_slot() { return small_scenario().first_slot(); }

TEST(GlobalScheduler, AllocatesAUsableCandidate) {
  for (time::SlotIndex s = first_slot(); s < first_slot() + 20; ++s) {
    const auto alloc = sched().allocate(iowa(), s);
    ASSERT_TRUE(alloc.has_value()) << "slot " << s;
    EXPECT_GE(alloc->look.elevation_deg, 25.0);
    EXPECT_GT(alloc->num_available, 0);
    EXPECT_EQ(alloc->num_available,
              alloc->num_sunlit_available + alloc->num_dark_available);
  }
}

TEST(GlobalScheduler, DeterministicPerSlot) {
  const auto a = sched().allocate(iowa(), first_slot() + 5);
  const auto b = sched().allocate(iowa(), first_slot() + 5);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->norad_id, b->norad_id);
}

TEST(GlobalScheduler, AllocationsChangeAcrossSlots) {
  std::map<int, int> picks;
  for (time::SlotIndex s = first_slot(); s < first_slot() + 40; ++s) {
    const auto alloc = sched().allocate(iowa(), s);
    if (alloc) picks[alloc->norad_id] += 1;
  }
  // Over 10 minutes the scheduler must not be stuck on one satellite.
  EXPECT_GE(picks.size(), 4u);
}

TEST(GlobalScheduler, AllocateFromMatchesAllocate) {
  const time::SlotIndex s = first_slot() + 3;
  const time::JulianDate jd =
      time::JulianDate::from_unix_seconds(sched().grid().slot_mid(s));
  const auto candidates = iowa().candidates(sched().catalog(), jd);
  const auto via = sched().allocate_from(iowa(), s, candidates);
  const auto direct = sched().allocate(iowa(), s);
  ASSERT_TRUE(via.has_value());
  ASSERT_TRUE(direct.has_value());
  EXPECT_EQ(via->norad_id, direct->norad_id);
}

TEST(GlobalScheduler, NeverPicksObstructedOrExcluded) {
  const time::SlotIndex s = first_slot() + 11;
  const time::JulianDate jd =
      time::JulianDate::from_unix_seconds(sched().grid().slot_mid(s));
  const ground::Terminal& ithaca = small_scenario().terminal(1);
  const auto alloc = sched().allocate(ithaca, s);
  if (!alloc.has_value()) return;
  // The pick must be one of the usable candidates.
  bool found = false;
  for (const auto& c : usable_candidates(ithaca, sched().catalog(), jd)) {
    if (c.sky.norad_id == alloc->norad_id) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(GlobalScheduler, ScoreIncreasesWithElevation) {
  // Two synthetic candidates identical except elevation.
  ground::Candidate low, high;
  low.sky.norad_id = high.sky.norad_id = 44001;
  low.sky.look = {0.0, 30.0, 1000.0};
  high.sky.look = {0.0, 70.0, 600.0};
  low.sky.sunlit = high.sky.sunlit = true;
  low.sky.age_days = high.sky.age_days = 100.0;

  // Average across slots to wash out the Gumbel noise.
  double low_sum = 0.0, high_sum = 0.0;
  for (time::SlotIndex s = 0; s < 300; ++s) {
    low_sum += sched().score(low, iowa(), s);
    high_sum += sched().score(high, iowa(), s);
  }
  EXPECT_GT(high_sum, low_sum);
}

TEST(GlobalScheduler, ScorePrefersNorth) {
  ground::Candidate north, south;
  north.sky.norad_id = south.sky.norad_id = 44002;
  north.sky.look = {0.0, 50.0, 800.0};
  south.sky.look = {180.0, 50.0, 800.0};
  north.sky.sunlit = south.sky.sunlit = true;
  north.sky.age_days = south.sky.age_days = 100.0;

  double n_sum = 0.0, s_sum = 0.0;
  for (time::SlotIndex s = 0; s < 300; ++s) {
    n_sum += sched().score(north, iowa(), s);
    s_sum += sched().score(south, iowa(), s);
  }
  EXPECT_GT(n_sum, s_sum);
}

TEST(GlobalScheduler, ScorePrefersNewer) {
  ground::Candidate young, old;
  young.sky.norad_id = old.sky.norad_id = 44003;
  young.sky.look = old.sky.look = {0.0, 50.0, 800.0};
  young.sky.sunlit = old.sky.sunlit = true;
  young.sky.age_days = 30.0;
  old.sky.age_days = 1400.0;

  double y_sum = 0.0, o_sum = 0.0;
  for (time::SlotIndex s = 0; s < 300; ++s) {
    y_sum += sched().score(young, iowa(), s);
    o_sum += sched().score(old, iowa(), s);
  }
  EXPECT_GT(y_sum, o_sum);
}

TEST(GlobalScheduler, ScorePrefersSunlitAtEqualGeometry) {
  ground::Candidate lit, dark;
  lit.sky.norad_id = dark.sky.norad_id = 44004;
  lit.sky.look = dark.sky.look = {0.0, 45.0, 800.0};
  lit.sky.age_days = dark.sky.age_days = 100.0;
  lit.sky.sunlit = true;
  dark.sky.sunlit = false;

  double lit_sum = 0.0, dark_sum = 0.0;
  for (time::SlotIndex s = 0; s < 300; ++s) {
    lit_sum += sched().score(lit, iowa(), s);
    dark_sum += sched().score(dark, iowa(), s);
  }
  EXPECT_GT(lit_sum, dark_sum);
}

TEST(GlobalScheduler, DarkPenaltyShrinksNearZenith) {
  // The dark-vs-sunlit score gap should be smaller at high elevation
  // (energy model: a high dark satellite is cheap to serve).
  auto gap_at = [&](double el) {
    ground::Candidate lit, dark;
    lit.sky.norad_id = dark.sky.norad_id = 44005;
    lit.sky.look = dark.sky.look = {0.0, el, 700.0};
    lit.sky.age_days = dark.sky.age_days = 100.0;
    lit.sky.sunlit = true;
    dark.sky.sunlit = false;
    double g = 0.0;
    for (time::SlotIndex s = 0; s < 300; ++s) {
      g += sched().score(lit, iowa(), s) - sched().score(dark, iowa(), s);
    }
    return g / 300.0;
  };
  EXPECT_GT(gap_at(30.0), gap_at(85.0));
}

TEST(GlobalScheduler, LoadIsInUnitIntervalAndVaries) {
  std::set<double> values;
  for (int id = 44000; id < 44050; ++id) {
    const double l = sched().satellite_load(id, 1234);
    EXPECT_GE(l, 0.0);
    EXPECT_LT(l, 1.0);
    values.insert(l);
  }
  EXPECT_GT(values.size(), 40u);
}

TEST(GlobalScheduler, LoadHasTemporalCorrelation) {
  // Load is constant within a 1-minute (4-slot) block by design.
  const double a = sched().satellite_load(44000, 1000);
  const double b = sched().satellite_load(44000, 1001);
  EXPECT_DOUBLE_EQ(a, b);  // same coarse block
  // 1000/4 == 250; 1003 is still in block 250, 1004 is block 251.
  EXPECT_DOUBLE_EQ(sched().satellite_load(44000, 1003), a);
  EXPECT_NE(sched().satellite_load(44000, 1004), a);
}

TEST(GlobalScheduler, EmptyCandidateListGivesNoAllocation) {
  const auto alloc = sched().allocate_from(iowa(), 0, {});
  EXPECT_FALSE(alloc.has_value());
}

}  // namespace
}  // namespace starlab::scheduler
