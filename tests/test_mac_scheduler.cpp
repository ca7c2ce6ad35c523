#include "scheduler/mac_scheduler.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

namespace starlab::scheduler {
namespace {

constexpr std::uint64_t kTerminal = 0xabcdef12345ULL;

TEST(MacScheduler, CycleLengthWithinConfiguredBounds) {
  const MacScheduler mac;
  for (int id = 44000; id < 44100; ++id) {
    for (time::SlotIndex s = 0; s < 10; ++s) {
      const int c = mac.cycle_length(id, s);
      EXPECT_GE(c, MacScheduler::kMinCycle);
      EXPECT_LE(c, MacScheduler::kMaxCycle);
    }
  }
}

TEST(MacScheduler, RotationPositionWithinCycle) {
  const MacScheduler mac;
  for (int id = 44000; id < 44050; ++id) {
    const int cycle = mac.cycle_length(id, 7);
    const int pos = mac.rotation_position(id, kTerminal, 7);
    EXPECT_GE(pos, 0);
    EXPECT_LT(pos, cycle);
  }
}

TEST(MacScheduler, PositionStableWithinSlot) {
  const MacScheduler mac;
  const int p1 = mac.rotation_position(44000, kTerminal, 42);
  const int p2 = mac.rotation_position(44000, kTerminal, 42);
  EXPECT_EQ(p1, p2);
}

TEST(MacScheduler, DelaysFormDiscreteBands) {
  // Within one slot, probe delays must cluster on few discrete levels
  // spaced by the frame interval — the Fig 2 parallel bands.
  const MacScheduler mac;
  std::set<int> bands;
  for (std::uint64_t p = 0; p < 750; ++p) {  // one slot of 20 ms probes
    const double d = mac.queuing_delay_ms(44000, kTerminal, 42, p);
    const double band = d / MacScheduler::kFrameIntervalMs;
    bands.insert(static_cast<int>(std::floor(band + 1e-9)));
    // Intra-band spread must stay below the configured jitter.
    const double frac = band - std::floor(band);
    EXPECT_LT(frac * MacScheduler::kFrameIntervalMs,
              MacScheduler::kIntraBandJitterMs + 1e-9);
  }
  EXPECT_GE(bands.size(), 2u);   // more than one visible band
  EXPECT_LE(bands.size(), 12u);  // but a small discrete set
}

TEST(MacScheduler, BaseBandIsMostPopulated) {
  // The geometric miss model makes the terminal's own rotation position the
  // densest band.
  const MacScheduler mac;
  const int base = mac.rotation_position(44000, kTerminal, 42);
  std::map<int, int> counts;
  for (std::uint64_t p = 0; p < 2000; ++p) {
    counts[mac.band_of_probe(44000, kTerminal, 42, p)] += 1;
  }
  int best_band = -1, best_count = -1;
  for (const auto& [band, count] : counts) {
    if (count > best_count) {
      best_count = count;
      best_band = band;
    }
  }
  EXPECT_EQ(best_band, base);
}

TEST(MacScheduler, BandSpacingIsOneCycle) {
  const MacScheduler mac;
  const int cycle = mac.cycle_length(44000, 42);
  const int base = mac.rotation_position(44000, kTerminal, 42);
  std::set<int> bands;
  for (std::uint64_t p = 0; p < 4000; ++p) {
    bands.insert(mac.band_of_probe(44000, kTerminal, 42, p));
  }
  for (const int b : bands) {
    EXPECT_EQ((b - base) % cycle, 0) << "band " << b;
    EXPECT_GE(b, base);
  }
}

TEST(MacScheduler, DifferentTerminalsGetDifferentPositions) {
  const MacScheduler mac;
  // Across many satellites, two terminals should often disagree on the
  // rotation position.
  int disagreements = 0;
  for (int id = 44000; id < 44100; ++id) {
    if (mac.rotation_position(id, 1, 7) != mac.rotation_position(id, 2, 7)) {
      ++disagreements;
    }
  }
  EXPECT_GT(disagreements, 30);
}

TEST(MacScheduler, BandsShiftBetweenSlots) {
  const MacScheduler mac;
  int changes = 0;
  for (time::SlotIndex s = 0; s < 50; ++s) {
    if (mac.rotation_position(44000, kTerminal, s) !=
        mac.rotation_position(44000, kTerminal, s + 1)) {
      ++changes;
    }
  }
  EXPECT_GT(changes, 10);  // re-rotation on slot boundaries
}

TEST(MacScheduler, DelayIsNonNegativeAndBounded) {
  const MacScheduler mac;
  for (std::uint64_t p = 0; p < 1000; ++p) {
    const double d = mac.queuing_delay_ms(44123, kTerminal, 99, p);
    EXPECT_GE(d, 0.0);
    // max band = max_cycle - 1 + 4 * max_cycle.
    const double bound =
        (5.0 * MacScheduler::kMaxCycle) * MacScheduler::kFrameIntervalMs +
        MacScheduler::kIntraBandJitterMs;
    EXPECT_LE(d, bound);
  }
}

}  // namespace
}  // namespace starlab::scheduler
