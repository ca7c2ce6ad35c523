#include "match/identifier.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "obsmap/painter.hpp"
#include "test_helpers.hpp"

namespace starlab::match {
namespace {

using starlab::testing::small_scenario;

class IdentifierTest : public ::testing::Test {
 protected:
  IdentifierTest()
      : identifier_(small_scenario().catalog(), obsmap::MapGeometry{},
                    small_scenario().grid()) {}

  /// Paint the ground-truth frame pair for one slot and return (prev, curr,
  /// truth allocation).
  struct SlotFrames {
    obsmap::ObstructionMap prev, curr;
    std::optional<scheduler::Allocation> truth;
  };

  SlotFrames frames_for(time::SlotIndex slot) const {
    SlotFrames out;
    obsmap::MapRecorder recorder(small_scenario().catalog(),
                                 small_scenario().terminal(0),
                                 small_scenario().grid());
    // Record the slot before, snapshot, then the slot itself.
    recorder.record_slot(small_scenario().global_scheduler().allocate(
        small_scenario().terminal(0), slot - 1));
    out.prev = recorder.accumulated();
    out.truth = small_scenario().global_scheduler().allocate(
        small_scenario().terminal(0), slot);
    out.curr = recorder.record_slot(out.truth);
    return out;
  }

  /// Terminal 0's sky at the slot midpoint, the identifier's candidates.
  static std::vector<ground::Candidate> sky_for(time::SlotIndex slot) {
    return starlab::testing::slot_sky(small_scenario(),
                                      small_scenario().terminal(0), slot);
  }

  SatelliteIdentifier identifier_;
};

TEST_F(IdentifierTest, IdentifiesTheServingSatellite) {
  int correct = 0, decided = 0;
  for (time::SlotIndex s = small_scenario().first_slot() + 1;
       s < small_scenario().first_slot() + 13; ++s) {
    const SlotFrames f = frames_for(s);
    if (!f.truth.has_value()) continue;
    const Identification id =
        identifier_.identify(small_scenario().terminal(0), s, f.prev, f.curr,
                             sky_for(s));
    if (!id.best.has_value()) continue;
    ++decided;
    if (id.best->norad_id == f.truth->norad_id) ++correct;
  }
  ASSERT_GT(decided, 6);
  // Paper: >99 % over 500 trials; demand >=90 % on this small sample.
  EXPECT_GE(static_cast<double>(correct) / decided, 0.9);
}

TEST_F(IdentifierTest, RankedListIsSortedAscending) {
  const time::SlotIndex s = small_scenario().first_slot() + 2;
  const SlotFrames f = frames_for(s);
  const Identification id =
      identifier_.identify(small_scenario().terminal(0), s, f.prev, f.curr,
                           sky_for(s));
  for (std::size_t i = 1; i < id.ranked.size(); ++i) {
    EXPECT_LE(id.ranked[i - 1].dtw, id.ranked[i].dtw);
  }
  if (id.best.has_value() && !id.ranked.empty()) {
    EXPECT_EQ(id.best->norad_id, id.ranked.front().norad_id);
  }
}

TEST_F(IdentifierTest, CandidateCountPlausible) {
  const time::SlotIndex s = small_scenario().first_slot() + 3;
  const SlotFrames f = frames_for(s);
  const Identification id =
      identifier_.identify(small_scenario().terminal(0), s, f.prev, f.curr,
                           sky_for(s));
  // 1/4-scale constellation: a handful to a few dozen candidates.
  EXPECT_GT(id.num_candidates, 1);
  EXPECT_LT(id.num_candidates, 60);
}

TEST_F(IdentifierTest, EmptyIsolationYieldsNoAnswer) {
  const obsmap::ObstructionMap empty;
  const time::SlotIndex s = small_scenario().first_slot() + 1;
  const Identification id = identifier_.identify_isolated(
      small_scenario().terminal(0), s, empty, sky_for(s));
  EXPECT_FALSE(id.best.has_value());
  EXPECT_EQ(id.trajectory_pixels, 0u);
}

TEST_F(IdentifierTest, IdentifyEqualsIdentifyIsolatedOnXor) {
  const time::SlotIndex s = small_scenario().first_slot() + 4;
  const SlotFrames f = frames_for(s);
  const Identification a =
      identifier_.identify(small_scenario().terminal(0), s, f.prev, f.curr,
                           sky_for(s));
  const Identification b = identifier_.identify_isolated(
      small_scenario().terminal(0), s, f.curr.exclusive_or(f.prev),
      sky_for(s));
  ASSERT_EQ(a.best.has_value(), b.best.has_value());
  if (a.best) {
    EXPECT_EQ(a.best->norad_id, b.best->norad_id);
    EXPECT_DOUBLE_EQ(a.best->dtw, b.best->dtw);
  }
}

TEST_F(IdentifierTest, CandidatePathStaysOnPlot) {
  const time::SlotIndex s = small_scenario().first_slot() + 5;
  const SlotFrames f = frames_for(s);
  if (!f.truth.has_value()) return;
  const auto path = identifier_.candidate_path(
      f.truth->catalog_index,
      identifier_.slot_sampler(small_scenario().terminal(0), s));
  ASSERT_FALSE(path.empty());
  for (const Point2& p : path) {
    const double dx = p.x - 61.0, dy = p.y - 61.0;
    EXPECT_LE(std::sqrt(dx * dx + dy * dy), 45.5);
  }
}

TEST_F(IdentifierTest, WinningDtwIsSmall) {
  const time::SlotIndex s = small_scenario().first_slot() + 6;
  const SlotFrames f = frames_for(s);
  if (!f.truth.has_value()) return;
  const Identification id =
      identifier_.identify(small_scenario().terminal(0), s, f.prev, f.curr,
                           sky_for(s));
  if (!id.best.has_value()) return;
  // The true trajectory matches to within a couple of pixels per sample.
  EXPECT_LT(id.best->dtw, 10.0);
}

}  // namespace
}  // namespace starlab::match
