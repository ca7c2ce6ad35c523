// Robustness of §4 identification to *unnoticed* dish reboots: the XOR
// method assumes monotone frame accumulation; a reboot between two polls
// violates it. The identifier detects the violation (previous frame not a
// subset of the current one) and falls back to matching the fresh frame.

#include <gtest/gtest.h>

#include "match/identifier.hpp"
#include "obsmap/painter.hpp"
#include "test_helpers.hpp"

namespace starlab::match {
namespace {

using starlab::testing::small_scenario;
using starlab::testing::slot_sky;

struct Frames {
  obsmap::ObstructionMap before_reset;  // accumulated, several slots
  obsmap::ObstructionMap after_reset;   // fresh frame, one slot
  std::optional<scheduler::Allocation> truth;  // the slot after the reset
  time::SlotIndex slot = 0;
};

Frames make_reset_frames() {
  Frames out;
  obsmap::MapRecorder recorder(small_scenario().catalog(),
                               small_scenario().terminal(0),
                               small_scenario().grid());
  const time::SlotIndex first = small_scenario().first_slot();
  for (time::SlotIndex s = first; s < first + 5; ++s) {
    recorder.record_slot(
        small_scenario().global_scheduler().allocate(
            small_scenario().terminal(0), s));
  }
  out.before_reset = recorder.accumulated();

  // Unnoticed reboot, then one more slot.
  recorder.reset();
  out.slot = first + 5;
  out.truth = small_scenario().global_scheduler().allocate(
      small_scenario().terminal(0), out.slot);
  out.after_reset = recorder.record_slot(out.truth);
  return out;
}

TEST(ResetDetection, DetectsTheReboot) {
  const Frames f = make_reset_frames();
  const SatelliteIdentifier identifier(small_scenario().catalog(),
                                       obsmap::MapGeometry{},
                                       small_scenario().grid());
  const Identification id = identifier.identify(
      small_scenario().terminal(0), f.slot, f.before_reset, f.after_reset,
      slot_sky(small_scenario(), small_scenario().terminal(0), f.slot));
  EXPECT_TRUE(id.reset_detected);
}

TEST(ResetDetection, StillIdentifiesCorrectly) {
  const Frames f = make_reset_frames();
  ASSERT_TRUE(f.truth.has_value());
  const SatelliteIdentifier identifier(small_scenario().catalog(),
                                       obsmap::MapGeometry{},
                                       small_scenario().grid());
  const Identification id = identifier.identify(
      small_scenario().terminal(0), f.slot, f.before_reset, f.after_reset,
      slot_sky(small_scenario(), small_scenario().terminal(0), f.slot));
  ASSERT_TRUE(id.best.has_value());
  EXPECT_EQ(id.best->norad_id, f.truth->norad_id);
}

TEST(ResetDetection, NormalAccumulationNotFlagged) {
  obsmap::MapRecorder recorder(small_scenario().catalog(),
                               small_scenario().terminal(0),
                               small_scenario().grid());
  const time::SlotIndex first = small_scenario().first_slot();
  recorder.record_slot(small_scenario().global_scheduler().allocate(
      small_scenario().terminal(0), first));
  const obsmap::ObstructionMap prev = recorder.accumulated();
  const obsmap::ObstructionMap curr =
      recorder.record_slot(small_scenario().global_scheduler().allocate(
          small_scenario().terminal(0), first + 1));

  const SatelliteIdentifier identifier(small_scenario().catalog(),
                                       obsmap::MapGeometry{},
                                       small_scenario().grid());
  const Identification id = identifier.identify(
      small_scenario().terminal(0), first + 1, prev, curr,
      slot_sky(small_scenario(), small_scenario().terminal(0), first + 1));
  EXPECT_FALSE(id.reset_detected);
}

/// Adds up to `n` pixels to `frame`, none of which has a set 8-neighbour in
/// `frame` or in `keep_clear` or is set in `keep_clear`: the isolated
/// pixels bit flips leave. Returns how many were added.
int add_isolated_pixels(obsmap::ObstructionMap& frame,
                        const obsmap::ObstructionMap& keep_clear, int n) {
  const auto near_set = [](const obsmap::ObstructionMap& m, int x, int y) {
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        if (m.get(x + dx, y + dy)) return true;
      }
    }
    return false;
  };
  int added = 0;
  for (int y = 2; y < obsmap::ObstructionMap::kSize && added < n; y += 7) {
    for (int x = 2; x < obsmap::ObstructionMap::kSize && added < n; x += 5) {
      if (near_set(frame, x, y) || near_set(keep_clear, x, y)) continue;
      frame.set(x, y);
      ++added;
    }
  }
  return added;
}

TEST(ResetDetection, IsolatedFlipsInPreviousFrameAreNotAReboot) {
  // A corrupted poll adds isolated pixels to the frame that becomes the
  // next slot's baseline; its clean successor lacks them. That is not a
  // reboot: only lost streak pixels are.
  obsmap::MapRecorder recorder(small_scenario().catalog(),
                               small_scenario().terminal(0),
                               small_scenario().grid());
  const time::SlotIndex first = small_scenario().first_slot();
  for (time::SlotIndex s = first; s < first + 5; ++s) {
    recorder.record_slot(small_scenario().global_scheduler().allocate(
        small_scenario().terminal(0), s));
  }
  obsmap::ObstructionMap prev = recorder.accumulated();
  const time::SlotIndex slot = first + 5;
  const obsmap::ObstructionMap curr =
      recorder.record_slot(small_scenario().global_scheduler().allocate(
          small_scenario().terminal(0), slot));
  ASSERT_EQ(add_isolated_pixels(prev, curr, 20), 20);

  const SatelliteIdentifier identifier(small_scenario().catalog(),
                                       obsmap::MapGeometry{},
                                       small_scenario().grid());
  const std::vector<ground::Candidate> sky =
      slot_sky(small_scenario(), small_scenario().terminal(0), slot);
  EXPECT_FALSE(identifier
                   .identify(small_scenario().terminal(0), slot, prev, curr,
                             sky)
                   .reset_detected);

  // The same flipped baseline against a frame painted after a real wipe.
  recorder.reset();
  const obsmap::ObstructionMap wiped =
      recorder.record_slot(small_scenario().global_scheduler().allocate(
          small_scenario().terminal(0), slot));
  EXPECT_TRUE(identifier
                  .identify(small_scenario().terminal(0), slot, prev, wiped,
                            sky)
                  .reset_detected);
}

TEST(ResetDetection, WithoutDetectionTheXorWouldMislead) {
  // Sanity on the failure mode itself: the naive XOR of a pre-reset frame
  // with a post-reset frame contains far more pixels than one trajectory.
  const Frames f = make_reset_frames();
  const obsmap::ObstructionMap naive = f.after_reset.exclusive_or(f.before_reset);
  EXPECT_GT(naive.popcount(), f.after_reset.popcount());
}

}  // namespace
}  // namespace starlab::match
