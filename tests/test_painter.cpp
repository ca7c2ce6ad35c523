#include "obsmap/painter.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "test_helpers.hpp"

namespace starlab::obsmap {
namespace {

using starlab::testing::small_scenario;

std::optional<scheduler::Allocation> first_allocation() {
  return small_scenario().global_scheduler().allocate(
      small_scenario().terminal(0), small_scenario().first_slot());
}

TEST(Painter, PaintsAContiguousStreak) {
  const auto alloc = first_allocation();
  ASSERT_TRUE(alloc.has_value());

  ObstructionMap frame;
  const TrajectoryPainter painter;
  const auto& grid = small_scenario().grid();
  painter.paint(small_scenario().catalog(), alloc->catalog_index,
                small_scenario().terminal(0), grid.slot_start(alloc->slot),
                grid.slot_end(alloc->slot), frame);

  // 15 s of LEO motion paints a short streak (possibly a single pixel for
  // slow apparent motion, usually a handful).
  EXPECT_GE(frame.popcount(), 1u);
  EXPECT_LE(frame.popcount(), 40u);

  // 8-connectivity: every pixel has a neighbour unless the streak is 1 px.
  const auto pixels = frame.set_pixels();
  if (pixels.size() > 1) {
    for (const Pixel& p : pixels) {
      bool has_neighbor = false;
      for (const Pixel& q : pixels) {
        if (&p == &q) continue;
        if (std::abs(p.x - q.x) <= 1 && std::abs(p.y - q.y) <= 1) {
          has_neighbor = true;
          break;
        }
      }
      EXPECT_TRUE(has_neighbor) << "isolated pixel (" << p.x << "," << p.y << ")";
    }
  }
}

TEST(Painter, StreakLiesInsidePolarPlot) {
  const auto alloc = first_allocation();
  ASSERT_TRUE(alloc.has_value());

  ObstructionMap frame;
  const TrajectoryPainter painter;
  const auto& grid = small_scenario().grid();
  painter.paint(small_scenario().catalog(), alloc->catalog_index,
                small_scenario().terminal(0), grid.slot_start(alloc->slot),
                grid.slot_end(alloc->slot), frame);

  const MapGeometry geom;
  for (const Pixel& p : frame.set_pixels()) {
    EXPECT_TRUE(geom.sky_of(p).has_value())
        << "(" << p.x << "," << p.y << ") outside plot";
  }
}

TEST(Painter, StreakMatchesLookAngles) {
  const auto alloc = first_allocation();
  ASSERT_TRUE(alloc.has_value());

  ObstructionMap frame;
  const TrajectoryPainter painter;
  const auto& grid = small_scenario().grid();
  painter.paint(small_scenario().catalog(), alloc->catalog_index,
                small_scenario().terminal(0), grid.slot_start(alloc->slot),
                grid.slot_end(alloc->slot), frame);

  // The slot-midpoint look angles must fall on (or within 2 px of) the
  // painted streak.
  const auto jd = time::JulianDate::from_unix_seconds(grid.slot_mid(alloc->slot));
  const auto look = small_scenario().catalog().look_at(
      alloc->catalog_index, small_scenario().terminal(0).site(), jd);
  const MapGeometry geom;
  const auto expected = geom.pixel_of({look.azimuth_deg, look.elevation_deg});
  ASSERT_TRUE(expected.has_value());

  int best = 1000;
  for (const Pixel& p : frame.set_pixels()) {
    best = std::min(best, std::abs(p.x - expected->x) + std::abs(p.y - expected->y));
  }
  EXPECT_LE(best, 2);
}

TEST(MapRecorderTest, AccumulatesAcrossSlots) {
  MapRecorder recorder(small_scenario().catalog(), small_scenario().terminal(0),
                       small_scenario().grid());
  const auto& sched = small_scenario().global_scheduler();

  std::size_t prev_count = 0;
  for (time::SlotIndex s = small_scenario().first_slot();
       s < small_scenario().first_slot() + 10; ++s) {
    const ObstructionMap snap =
        recorder.record_slot(sched.allocate(small_scenario().terminal(0), s));
    EXPECT_GE(snap.popcount(), prev_count);  // cumulative, never shrinks
    prev_count = snap.popcount();
    EXPECT_EQ(snap.popcount(), recorder.accumulated().popcount());
  }
  EXPECT_GT(prev_count, 5u);
}

TEST(MapRecorderTest, SnapshotContainsAllPriorTrajectories) {
  MapRecorder recorder(small_scenario().catalog(), small_scenario().terminal(0),
                       small_scenario().grid());
  const auto& sched = small_scenario().global_scheduler();

  const ObstructionMap snap1 = recorder.record_slot(
      sched.allocate(small_scenario().terminal(0), small_scenario().first_slot()));
  const ObstructionMap snap2 = recorder.record_slot(sched.allocate(
      small_scenario().terminal(0), small_scenario().first_slot() + 1));
  EXPECT_TRUE(starlab::testing::subset_of(snap1, snap2));
}

TEST(MapRecorderTest, ResetWipes) {
  MapRecorder recorder(small_scenario().catalog(), small_scenario().terminal(0),
                       small_scenario().grid());
  recorder.record_slot(small_scenario().global_scheduler().allocate(
      small_scenario().terminal(0), small_scenario().first_slot()));
  EXPECT_GT(recorder.accumulated().popcount(), 0u);
  recorder.reset();
  EXPECT_EQ(recorder.accumulated().popcount(), 0u);
}

TEST(MapRecorderTest, NulloptPaintsNothing) {
  MapRecorder recorder(small_scenario().catalog(), small_scenario().terminal(0),
                       small_scenario().grid());
  const ObstructionMap snap = recorder.record_slot(std::nullopt);
  EXPECT_EQ(snap.popcount(), 0u);
}

}  // namespace
}  // namespace starlab::obsmap
