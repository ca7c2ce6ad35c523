#pragma once

// The paper's central empirical finding (§3): Starlink's global scheduler
// re-allocates satellites to terminals on a global 15-second grid whose epoch
// boundaries fall at the 12th, 27th, 42nd and 57th second past every minute.
// SlotGrid models that grid: a bijection between wall-clock instants and slot
// indices.

#include <cstdint>

namespace starlab::time {

/// Identifier of one 15-second scheduling slot. Slot k covers
/// [anchor + 15k, anchor + 15(k+1)).
using SlotIndex = std::int64_t;

class SlotGrid {
 public:
  /// @param period_sec   slot length (the paper measured 15 s).
  /// @param offset_sec   phase of the slot boundaries within the minute (the
  ///                     paper measured 12 s: boundaries at :12/:27/:42/:57).
  explicit SlotGrid(double period_sec = 15.0, double offset_sec = 12.0)
      : period_(period_sec), offset_(offset_sec) {}

  [[nodiscard]] double period_seconds() const { return period_; }

  /// Slot containing the given Unix time.
  [[nodiscard]] SlotIndex slot_of(double unix_sec) const;

  /// Unix time at which a slot begins.
  [[nodiscard]] double slot_start(SlotIndex slot) const;

  /// Unix time at which a slot ends (== start of the next slot).
  [[nodiscard]] double slot_end(SlotIndex slot) const {
    return slot_start(slot + 1);
  }

  /// Midpoint of a slot; the representative instant at which satellite
  /// geometry is evaluated for that slot.
  [[nodiscard]] double slot_mid(SlotIndex slot) const {
    return slot_start(slot) + 0.5 * period_;
  }


  /// True if the given time is within `tol_sec` of a slot boundary; used by
  /// the measurement-side change-point analysis.
  [[nodiscard]] bool near_boundary(double unix_sec, double tol_sec) const;

 private:
  double period_;
  double offset_;
};

}  // namespace starlab::time
