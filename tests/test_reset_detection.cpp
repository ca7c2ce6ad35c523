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

TEST(ResetDetection, WithoutDetectionTheXorWouldMislead) {
  // Sanity on the failure mode itself: the naive XOR of a pre-reset frame
  // with a post-reset frame contains far more pixels than one trajectory.
  const Frames f = make_reset_frames();
  const obsmap::ObstructionMap naive = f.after_reset.exclusive_or(f.before_reset);
  EXPECT_GT(naive.popcount(), f.after_reset.popcount());
}

}  // namespace
}  // namespace starlab::match
