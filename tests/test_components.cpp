#include "obsmap/components.hpp"

#include <gtest/gtest.h>

#include "match/identifier.hpp"
#include "obsmap/painter.hpp"
#include "test_helpers.hpp"

namespace starlab::obsmap {
namespace {

TEST(Components, EmptyFrame) {
  EXPECT_TRUE(connected_components(ObstructionMap{}).empty());
}

TEST(Components, SingleBlob) {
  ObstructionMap m;
  for (int i = 0; i < 10; ++i) m.set(30 + i, 40);
  const auto comps = connected_components(m);
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_EQ(comps[0].size(), 10u);
}

TEST(Components, DiagonalIsEightConnected) {
  ObstructionMap m;
  m.set(10, 10);
  m.set(11, 11);
  m.set(12, 12);
  EXPECT_EQ(connected_components(m).size(), 1u);
}

TEST(Components, SeparateBlobsSortedBySize) {
  ObstructionMap m;
  for (int i = 0; i < 12; ++i) m.set(20 + i, 20);  // big streak
  for (int i = 0; i < 4; ++i) m.set(80 + i, 80);   // small streak
  m.set(100, 10);                                   // stray pixel
  const auto comps = connected_components(m);
  ASSERT_EQ(comps.size(), 3u);
  EXPECT_EQ(comps[0].size(), 12u);
  EXPECT_EQ(comps[1].size(), 4u);
  EXPECT_EQ(comps[2].size(), 1u);
}

TEST(Components, LargestComponentExtracted) {
  // The identifier matches only the largest component: the first one.
  ObstructionMap m;
  for (int i = 0; i < 12; ++i) m.set(20 + i, 20);
  for (int i = 0; i < 4; ++i) m.set(80 + i, 80);
  const auto comps = connected_components(m);
  ASSERT_FALSE(comps.empty());
  ObstructionMap biggest;
  for (const Pixel& p : comps.front()) biggest.set(p);
  EXPECT_EQ(biggest.popcount(), 12u);
  EXPECT_TRUE(biggest.get(25, 20));
  EXPECT_FALSE(biggest.get(81, 80));
}

TEST(Components, TouchingBlobsMerge) {
  ObstructionMap m;
  for (int i = 0; i < 5; ++i) m.set(20 + i, 20);
  for (int i = 0; i < 5; ++i) m.set(24 + i, 21);  // overlaps at x==24
  EXPECT_EQ(connected_components(m).size(), 1u);
}

TEST(Components, IdentifierSurvivesStrayPixels) {
  // Inject stray pixels (un-cancelled XOR residue) far from the true
  // trajectory; with use_largest_component the identification must not
  // budge.
  using starlab::testing::small_scenario;
  const auto& sc = small_scenario();

  MapRecorder recorder(sc.catalog(), sc.terminal(0), sc.grid());
  recorder.record_slot(
      sc.global_scheduler().allocate(sc.terminal(0), sc.first_slot()));
  const ObstructionMap prev = recorder.accumulated();
  const auto truth =
      sc.global_scheduler().allocate(sc.terminal(0), sc.first_slot() + 1);
  ObstructionMap curr = recorder.record_slot(truth);
  ASSERT_TRUE(truth.has_value());

  // Corrupt the current frame with strays *not* present in prev (they
  // survive the XOR). Place them inside the polar plot but away from the
  // centre of the true streak.
  ObstructionMap corrupted = curr;
  corrupted.set(61, 30);
  corrupted.set(61, 31);
  corrupted.set(40, 75);

  const match::SatelliteIdentifier identifier(sc.catalog(), MapGeometry{},
                                              sc.grid());
  const match::Identification id =
      identifier.identify(sc.terminal(0), sc.first_slot() + 1, prev, corrupted,
                          starlab::testing::slot_sky(sc, sc.terminal(0),
                                                     sc.first_slot() + 1));
  ASSERT_TRUE(id.best.has_value());
  EXPECT_EQ(id.best->norad_id, truth->norad_id);
}

}  // namespace
}  // namespace starlab::obsmap
