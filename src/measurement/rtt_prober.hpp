#pragma once

// iRTT-style high-frequency prober.
//
// The paper sends 1 probe every 20 ms from each dish to its PoP-co-located
// server. RttProber reproduces that measurement: for each probe it resolves
// the serving satellite from the global-scheduler oracle (cached per
// 15-second slot) and synthesizes the RTT through the latency model. The
// output series is what §3's change-point and Mann-Whitney analyses consume.

#include <cstdint>
#include <vector>

#include "measurement/latency_model.hpp"

namespace starlab::measurement {

/// Probe spacing [ms]: 1 probe / 20 ms, like the paper's iRTT runs.
inline constexpr double kProbeIntervalMs = 20.0;

/// One probe result.
struct RttSample {
  double unix_sec = 0.0;
  double rtt_ms = 0.0;
  bool lost = false;
  time::SlotIndex slot = 0;  ///< scheduling slot the probe fell into
};

/// A probe series plus the context needed to interpret it.
struct RttSeries {
  std::string terminal;
  double interval_ms = kProbeIntervalMs;
  std::vector<RttSample> samples;

  /// Received (non-lost) samples only. An empty series yields an empty
  /// vector.
  [[nodiscard]] std::vector<RttSample> received() const;

  /// Fraction of probes lost. Defined as 0 (not NaN) for an empty series,
  /// so degraded campaigns that recorded nothing stay safe to aggregate.
  [[nodiscard]] double loss_rate() const;
};

class RttProber {
 public:
  RttProber(const scheduler::GlobalScheduler& global, const LatencyModel& model)
      : global_(global), model_(model) {}

  /// Probe `terminal` continuously over [start_unix, end_unix).
  [[nodiscard]] RttSeries run(const ground::Terminal& terminal,
                              double start_unix, double end_unix) const;

 private:
  const scheduler::GlobalScheduler& global_;
  const LatencyModel& model_;
};

}  // namespace starlab::measurement
