#pragma once

// The global satellite-to-terminal scheduler oracle.
//
// The paper reverse-engineers Starlink's (secret) global controller; starlab
// instantiates a controller with exactly the preferences the paper measured
// and then runs the paper's inference pipeline against it as a black box:
//
//   * re-allocates every terminal on the 15-second grid (:12/:27/:42/:57);
//   * hard constraints: AOE > 25 deg, local obstructions, GSO exclusion
//     (which forces >40 degN terminals to point high and north — §5.1);
//   * soft preferences: high angle of elevation, northern azimuth, recent
//     launch date (§5.2), sunlit satellites (§5.3) — with the energy-budget
//     twist that a *dark* satellite is only attractive when it is high in
//     the sky (lower RF power), reproducing Fig 7;
//   * per-satellite load balancing plus bounded decision noise standing in
//     for the load/priority inputs the paper could not observe (§6
//     "Limitations").
//
// The inference pipeline never reads this class's internals — only what a
// real vantage point could observe (RTT, obstruction maps, TLEs).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "constellation/catalog.hpp"
#include "ground/gateway.hpp"
#include "ground/terminal.hpp"
#include "time/slot_grid.hpp"

namespace starlab::scheduler {

/// Soft-preference weights. The defaults are calibrated so the measured
/// statistics land near the paper's (Figs 4-7); the ablation benches sweep
/// them.
struct SchedulerWeights {
  double elevation = 3.0;       ///< reward for normalized AOE
  double north = 0.9;           ///< reward for northern azimuth
  double recency = 0.5;         ///< reward for recent launch date
  double sunlit = 0.2;          ///< bonus when the satellite is in sunlight
  double dark_range_penalty = 2.6;  ///< penalty for *dark* satellites low in the sky
  double noise = 0.55;          ///< Gumbel decision-noise scale (unobservable inputs)
};

/// Penalty per unit of satellite load.
inline constexpr double kLoadPenalty = 0.8;
/// Energy-budget gate (§5.3): dark satellites are not considered at all
/// unless at least this fraction of the slot's candidates is dark — the
/// scheduler only dips into battery power when it has little choice.
inline constexpr double kDarkFractionFloor = 0.35;

/// One allocation decision, as recorded by the oracle's trace. Everything in
/// here except `catalog_index`/`norad_id` is also observable externally; the
/// identity fields are what §4's pipeline has to recover on its own.
struct Allocation {
  time::SlotIndex slot = 0;
  std::string terminal;
  int norad_id = 0;
  std::size_t catalog_index = 0;
  geo::LookAngles look;        ///< at the slot midpoint
  bool sunlit = true;
  double age_days = 0.0;
  int num_available = 0;       ///< usable candidates in this slot
  int num_sunlit_available = 0;
  int num_dark_available = 0;
};

class GlobalScheduler {
 public:
  GlobalScheduler(const constellation::Catalog& catalog,
                  SchedulerWeights weights = {},
                  time::SlotGrid grid = time::SlotGrid(),
                  std::uint64_t seed = 7);

  /// Allocate a satellite to `terminal` for `slot`. Returns nullopt when no
  /// usable candidate exists (fully obstructed sky). Deterministic in
  /// (terminal, slot, seed).
  [[nodiscard]] std::optional<Allocation> allocate(
      const ground::Terminal& terminal, time::SlotIndex slot) const;

  /// allocate() over an externally computed candidate set (campaigns reuse
  /// one catalog propagation across terminals). The decision is identical
  /// to allocate() given the same candidates.
  [[nodiscard]] std::optional<Allocation> allocate_from(
      const ground::Terminal& terminal, time::SlotIndex slot,
      const std::vector<ground::Candidate>& candidates) const;

  /// Scored view of one candidate (exposed for tests and ablations).
  [[nodiscard]] double score(const ground::Candidate& candidate,
                             const ground::Terminal& terminal,
                             time::SlotIndex slot) const;

  /// Synthetic per-satellite load in [0,1) for a slot: the stand-in for the
  /// congestion inputs the paper could not observe. Deterministic.
  [[nodiscard]] double satellite_load(int norad_id, time::SlotIndex slot) const;

  /// Attach a gateway network as an additional hard constraint: candidates
  /// that see no gateway are skipped (bent-pipe requirement, §2). Pass
  /// nullptr to disable. The network must outlive the scheduler.
  void set_gateway_network(const ground::GatewayNetwork* network) {
    gateways_ = network;
  }

  [[nodiscard]] const time::SlotGrid& grid() const { return grid_; }
  [[nodiscard]] const constellation::Catalog& catalog() const {
    return catalog_;
  }

 private:
  const constellation::Catalog& catalog_;
  SchedulerWeights weights_;
  time::SlotGrid grid_;
  std::uint64_t seed_;
  double max_age_days_;  ///< normalization for the recency term
  const ground::GatewayNetwork* gateways_ = nullptr;
};

}  // namespace starlab::scheduler
