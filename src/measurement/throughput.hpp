#pragma once

// iPerf3-style throughput measurement (the paper's second probe stream ran
// iPerf3 at 50 % of the provisioned upstream). Goodput is bounded by the
// serving link's Shannon capacity (rf/link_budget) shared across the MAC
// cycle's terminals and degraded by the satellite's background load, so the
// series shows the same 15-second re-allocation structure as the RTT plots
// plus a capacity dimension.

#include <cstdint>
#include <string>
#include <vector>

#include "ground/terminal.hpp"
#include "scheduler/global_scheduler.hpp"
#include "scheduler/mac_scheduler.hpp"

namespace starlab::measurement {

struct ThroughputSample {
  double unix_sec = 0.0;
  double offered_mbps = 0.0;
  double goodput_mbps = 0.0;   ///< what actually got through
  double capacity_mbps = 0.0;  ///< the terminal's share of the link
  time::SlotIndex slot = 0;

  [[nodiscard]] bool saturated() const { return goodput_mbps < offered_mbps; }
};

struct ThroughputSeries {
  std::string terminal;
  std::vector<ThroughputSample> samples;

  /// Mean goodput over the series [Mbit/s].
  [[nodiscard]] double mean_goodput_mbps() const;

  /// Fraction of samples where the offered load exceeded capacity.
  [[nodiscard]] double saturation_fraction() const;
};

/// The prober offers 50 Mbit/s (the iPerf3 target rate) and samples once a
/// second over the Ku user downlink (rf/link_budget.hpp), at 65 % of Shannon
/// capacity with ±5 % multiplicative goodput jitter.
class ThroughputProber {
 public:
  ThroughputProber(const scheduler::GlobalScheduler& global,
                   const scheduler::MacScheduler& mac, std::uint64_t seed = 19)
      : global_(global), mac_(mac), seed_(seed) {}

  /// The terminal's capacity share through a given allocation at an instant:
  /// Shannon capacity at the slant range, divided by the MAC cycle length,
  /// scaled down by the satellite's background load.
  [[nodiscard]] double capacity_share_mbps(
      const ground::Terminal& terminal,
      const scheduler::Allocation& allocation, double unix_sec) const;

  /// Run an iPerf-style transfer over [start_unix, end_unix).
  [[nodiscard]] ThroughputSeries run(const ground::Terminal& terminal,
                                     double start_unix, double end_unix) const;

 private:
  const scheduler::GlobalScheduler& global_;
  const scheduler::MacScheduler& mac_;
  std::uint64_t seed_;
};

}  // namespace starlab::measurement
