#pragma once

// Measurement-side inference of the global scheduler's clock (§3).
//
// Given only an RTT series, this module (1) detects the abrupt latency
// changes, and (2) recovers the re-allocation *period* and *phase* — the
// paper's headline "every 15 seconds, at :12/:27/:42/:57" finding — without
// ever consulting the oracle. Detection works on a robust per-window
// summary (median of received RTTs in short buckets) so the MAC bands and
// jitter do not drown the step edges.

#include <vector>

#include "measurement/rtt_prober.hpp"

namespace starlab::measurement {

/// One detected abrupt latency change.
struct ChangePoint {
  double unix_sec = 0.0;    ///< bucket boundary where the shift occurs
  double magnitude_ms = 0.0;  ///< |median after - median before|
};

/// Minimum gap between reported changes; closer ones are merged.
inline constexpr double kMinChangeSeparationSec = 3.0;

/// Detect abrupt latency shifts in a series: the per-0.5 s-bucket 20th
/// percentile RTT, compared across 4 buckets on each side of a candidate
/// edge, must shift by at least 1.2 ms. A *low* quantile tracks the floor
/// of the MAC band structure (propagation + the terminal's own grant band),
/// which only moves when the serving satellite changes; the median would
/// stochastically flip between bands within a slot and fake mid-slot
/// changes.
[[nodiscard]] std::vector<ChangePoint> detect_change_points(
    const RttSeries& series);

/// Result of fitting a periodic grid to detected change points.
struct EpochEstimate {
  double period_sec = 0.0;   ///< best-fitting re-allocation period
  double offset_sec = 0.0;   ///< phase within the minute, in [0, period)
  double support = 0.0;      ///< fraction of change points within tolerance
};

/// Recover the scheduling period and phase from detected change points by
/// maximizing grid support over periods of 5-40 s in 0.5 s steps; a change
/// point fits the grid when it lies within 1 s of a boundary. With the
/// paper's parameters this returns period == 15 s, offset == 12 s.
[[nodiscard]] EpochEstimate estimate_epoch(
    const std::vector<ChangePoint>& change_points);

}  // namespace starlab::measurement
