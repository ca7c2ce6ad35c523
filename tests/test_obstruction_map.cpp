#include "obsmap/obstruction_map.hpp"

#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace starlab::obsmap {
namespace {

TEST(ObstructionMap, StartsEmpty) {
  const ObstructionMap m;
  EXPECT_EQ(m.popcount(), 0u);
  EXPECT_TRUE(m.set_pixels().empty());
  EXPECT_FALSE(m.get(61, 61));
}

TEST(ObstructionMap, SetAndGet) {
  ObstructionMap m;
  m.set(10, 20);
  EXPECT_TRUE(m.get(10, 20));
  EXPECT_FALSE(m.get(20, 10));
  EXPECT_EQ(m.popcount(), 1u);
  m.set(10, 20, false);
  EXPECT_FALSE(m.get(10, 20));
}

TEST(ObstructionMap, OutOfBoundsIsIgnoredNotFatal) {
  ObstructionMap m;
  m.set(-1, 0);
  m.set(0, -1);
  m.set(123, 0);
  m.set(0, 123);
  EXPECT_EQ(m.popcount(), 0u);
  EXPECT_FALSE(m.get(-1, 0));
  EXPECT_FALSE(m.get(123, 123));
}

TEST(ObstructionMap, ClearWipes) {
  ObstructionMap m;
  for (int i = 0; i < 50; ++i) m.set(i, i);
  EXPECT_EQ(m.popcount(), 50u);
  m.clear();
  EXPECT_EQ(m.popcount(), 0u);
}

TEST(ObstructionMap, SetPixelsRowMajor) {
  ObstructionMap m;
  m.set(5, 1);
  m.set(3, 2);
  m.set(100, 1);
  const auto pixels = m.set_pixels();
  ASSERT_EQ(pixels.size(), 3u);
  EXPECT_EQ(pixels[0], (Pixel{5, 1}));
  EXPECT_EQ(pixels[1], (Pixel{100, 1}));
  EXPECT_EQ(pixels[2], (Pixel{3, 2}));
}

TEST(ObstructionMap, XorIsolatesNewTrajectory) {
  // The paper's §4 primitive: XOR(frame(t-1), frame(t)) leaves only what
  // frame(t) added.
  ObstructionMap prev, curr;
  for (int i = 10; i < 30; ++i) prev.set(i, 40);  // old trajectory
  curr = prev;
  for (int i = 50; i < 70; ++i) curr.set(40, i);  // new trajectory

  const ObstructionMap isolated = curr.exclusive_or(prev);
  EXPECT_EQ(isolated.popcount(), 20u);
  for (int i = 50; i < 70; ++i) EXPECT_TRUE(isolated.get(40, i));
  for (int i = 10; i < 30; ++i) EXPECT_FALSE(isolated.get(i, 40));
}

TEST(ObstructionMap, XorErasesOverlap) {
  // Overlapping pixels cancel — the failure mode the paper's 10-minute
  // reset cadence avoids.
  ObstructionMap prev, curr;
  for (int i = 10; i < 30; ++i) prev.set(i, 40);
  curr = prev;
  for (int i = 20; i < 50; ++i) curr.set(i, 40);  // overlaps [20,30)

  const ObstructionMap isolated = curr.exclusive_or(prev);
  EXPECT_EQ(isolated.popcount(), 20u);  // only [30,50) survives
  EXPECT_FALSE(isolated.get(25, 40));
  EXPECT_TRUE(isolated.get(35, 40));
}

TEST(ObstructionMap, XorProperties) {
  ObstructionMap a, b;
  for (int i = 0; i < 60; i += 3) a.set(i, i);
  for (int i = 0; i < 60; i += 2) b.set(i, i);
  // Self-inverse and commutative.
  EXPECT_EQ(a.exclusive_or(a).popcount(), 0u);
  EXPECT_EQ(a.exclusive_or(b), b.exclusive_or(a));
  EXPECT_EQ(a.exclusive_or(b).exclusive_or(b), a);
}

TEST(ObstructionMap, SubsetOf) {
  using starlab::testing::subset_of;
  ObstructionMap small, big;
  small.set(4, 4);
  big.set(4, 4);
  big.set(5, 5);
  EXPECT_TRUE(subset_of(small, big));
  EXPECT_FALSE(subset_of(big, small));
  EXPECT_TRUE(subset_of(small, small));
  EXPECT_TRUE(subset_of(ObstructionMap(), small));
}

TEST(ObstructionMap, PgmHeaderAndSize) {
  ObstructionMap m;
  m.set(0, 0);
  const std::string pgm = m.to_pgm();
  EXPECT_EQ(pgm.rfind("P5\n123 123\n255\n", 0), 0u);
  EXPECT_EQ(pgm.size(), std::string("P5\n123 123\n255\n").size() + 123u * 123u);
}

TEST(ObstructionMap, AsciiRendering) {
  ObstructionMap m;
  m.set(0, 0);
  const std::string art = m.to_ascii(1);
  EXPECT_EQ(art[0], '#');
  EXPECT_EQ(art[1], '.');
  // 123 chars + newline per row.
  EXPECT_EQ(art.size(), 123u * 124u);
}

TEST(ObstructionMap, AsciiDownsampleAggregates) {
  ObstructionMap m;
  m.set(1, 1);  // not at (0,0), but within the first 2x2 block
  const std::string art = m.to_ascii(2);
  EXPECT_EQ(art[0], '#');
}

}  // namespace
}  // namespace starlab::obsmap
