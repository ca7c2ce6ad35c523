#pragma once

// End-to-end RTT synthesis for one probe.
//
// The paper measures millisecond-granularity RTTs from a dish to a server
// co-located at the regional PoP, so the path is: terminal -> serving
// satellite (bent pipe) -> ground station -> PoP server, and back. The RTT
// decomposes into
//
//     2 * (slant_up + slant_down) / c        physical propagation
//   + MAC queuing (parallel bands)           on-satellite scheduler
//   + fixed ground segment processing        GS <-> PoP wiring + server
//   + noise                                  RF/clock jitter (NTP-synced)
//
// Because the destination sits at the PoP, terrestrial vagaries are nil —
// the property the paper engineered its vantage points for.

#include <cstdint>

#include "constellation/catalog.hpp"
#include "ground/terminal.hpp"
#include "scheduler/global_scheduler.hpp"
#include "scheduler/mac_scheduler.hpp"

namespace starlab::measurement {

/// GS<->PoP backhaul + server turn [ms].
inline constexpr double kGroundProcessingMs = 10.0;
/// Gaussian RF/timestamping noise, one sigma [ms].
inline constexpr double kJitterSigmaMs = 0.25;
/// Packet loss floor.
inline constexpr double kBaseLossRate = 0.004;
/// Extra loss probability at the 25 deg elevation floor.
inline constexpr double kLowElevationLossBoost = 0.03;

class LatencyModel {
 public:
  LatencyModel(const constellation::Catalog& catalog,
               const scheduler::MacScheduler& mac)
      : catalog_(catalog), mac_(mac) {}

  /// RTT [ms] of the `probe_seq`-th probe sent at `unix_sec` from
  /// `terminal` through the satellite in `allocation`.
  [[nodiscard]] double rtt_ms(const ground::Terminal& terminal,
                              const scheduler::Allocation& allocation,
                              double unix_sec, std::uint64_t probe_seq) const;

  /// Whether that probe is lost. Loss increases as the serving satellite
  /// nears the elevation floor.
  [[nodiscard]] bool lost(const ground::Terminal& terminal,
                          const scheduler::Allocation& allocation,
                          std::uint64_t probe_seq) const;

  /// Propagation-only component [ms] (both hops, both directions), exposed
  /// for tests.
  [[nodiscard]] double propagation_ms(const ground::Terminal& terminal,
                                      const scheduler::Allocation& allocation,
                                      double unix_sec) const;

 private:
  const constellation::Catalog& catalog_;
  const scheduler::MacScheduler& mac_;
};

}  // namespace starlab::measurement
