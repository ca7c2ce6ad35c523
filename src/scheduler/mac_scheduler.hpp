#pragma once

// The on-satellite Medium Access Control scheduler.
//
// Within a 15-second allocation slot, the paper observes RTT samples forming
// parallel bands a few milliseconds apart (§3, Fig 2) and attributes them to
// an on-satellite controller that allocates radio frames to its attached
// terminals round-robin (the MAC scheduler of SpaceX's FCC filing / patent
// US 11,540,301). This model reproduces that observable: a terminal holds a
// rotation position in the satellite's frame cycle, and each probe departs
// on a grant a whole number of frame intervals after arrival — usually the
// terminal's own grant, occasionally one or more cycles later when the
// grant is missed. RTT samples therefore cluster on discrete levels spaced
// one frame interval apart: the parallel bands.

#include <cstdint>

#include "time/slot_grid.hpp"

namespace starlab::scheduler {

/// Service tiers (the FCC filing's MAC scheduler weighs "user priority"
/// among its inputs). Priority users are granted earlier positions in the
/// frame cycle and miss grants less often; best-effort users queue behind
/// everyone.
enum class Priority {
  kStandard,
  kPriority,
  kBestEffort,
};

class MacScheduler {
 public:
  static constexpr double kFrameIntervalMs = 1.33;  ///< one Ku-band radio frame
  /// Terminals sharing the beam: bounds of the load-dependent cycle.
  static constexpr int kMinCycle = 2;
  static constexpr int kMaxCycle = 8;
  static constexpr double kMissProbability = 0.45;  ///< P(grant missed)
  static constexpr double kIntraBandJitterMs = 0.18;  ///< spread in one band

  explicit MacScheduler(std::uint64_t seed = 11) : seed_(seed) {}

  /// Number of terminals sharing the frame cycle on `norad_id` during
  /// `slot` (a function of the satellite's load).
  [[nodiscard]] int cycle_length(int norad_id, time::SlotIndex slot) const;

  /// The terminal's fixed position within the frame cycle for this slot,
  /// in [0, cycle_length). Priority terminals land in the front half of the
  /// cycle, best-effort ones in the back half.
  [[nodiscard]] int rotation_position(int norad_id, std::uint64_t terminal_key,
                                      time::SlotIndex slot,
                                      Priority priority = Priority::kStandard) const;

  /// Band index (0-based) the `probe_seq`-th probe of this terminal lands
  /// on: rotation position plus a geometrically distributed number of
  /// missed cycles. Deterministic in all arguments.
  [[nodiscard]] int band_of_probe(int norad_id, std::uint64_t terminal_key,
                                  time::SlotIndex slot, std::uint64_t probe_seq,
                                  Priority priority = Priority::kStandard) const;

  /// Queuing delay [ms] for one probe: band * frame_interval + jitter.
  [[nodiscard]] double queuing_delay_ms(int norad_id,
                                        std::uint64_t terminal_key,
                                        time::SlotIndex slot,
                                        std::uint64_t probe_seq,
                                        Priority priority = Priority::kStandard) const;

  /// Effective grant-miss probability for a tier (priority halves it,
  /// best-effort adds half again, clamped to [0, 0.95]).
  [[nodiscard]] double miss_probability_for(Priority priority) const;

 private:
  std::uint64_t seed_;
};

}  // namespace starlab::scheduler
