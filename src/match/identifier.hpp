#pragma once

// §4's headline method: identify the serving satellite from an isolated
// obstruction-map trajectory.
//
// For one 15-second slot: take the XOR-isolated trajectory, chain it into a
// sequence, and compare against the painted sky path of every candidate
// satellite in the terminal's field of view (propagated from TLEs). The
// candidate with the lowest DTW distance is declared the serving satellite.
// Both traversal directions of the isolated path are tried because the map
// does not encode motion direction.

#include <optional>
#include <span>
#include <vector>

#include "constellation/catalog.hpp"
#include "ground/terminal.hpp"
#include "match/dtw.hpp"
#include "match/trajectory.hpp"
#include "obsmap/obstruction_map.hpp"
#include "time/slot_grid.hpp"

namespace starlab::match {

/// One candidate's match score.
struct MatchScore {
  std::size_t catalog_index = 0;
  int norad_id = 0;
  double dtw = 1e300;  ///< normalized DTW distance (lower is better)
};

/// Why the identifier declined to name a satellite. With degraded inputs
/// (dropped frames, bit flips, stale XOR baselines) guessing is worse than
/// abstaining: an abstained slot is simply missing from the §5 statistics,
/// while a mis-identified one poisons them.
enum class AbstainReason {
  kNone = 0,             ///< not abstained: `best` carries the answer
  kStarvedTrajectory,    ///< too few trajectory pixels to match
  kAmbiguousComponents,  ///< two comparable blobs: trajectories got mixed
  kHighDistance,         ///< even the best candidate matches poorly
  kLowMargin,            ///< runner-up is indistinguishable from the winner
};

/// Machine-readable reason name — the key the observability layer uses in
/// RunReport abstention counts.
[[nodiscard]] constexpr const char* abstain_reason_name(AbstainReason r) {
  switch (r) {
    case AbstainReason::kNone: return "none";
    case AbstainReason::kStarvedTrajectory: return "starved_trajectory";
    case AbstainReason::kAmbiguousComponents: return "ambiguous_components";
    case AbstainReason::kHighDistance: return "high_distance";
    case AbstainReason::kLowMargin: return "low_margin";
  }
  return "unknown";
}

/// Identification outcome for one slot.
struct Identification {
  std::optional<MatchScore> best;     ///< empty if abstained / no evidence
  std::vector<MatchScore> ranked;     ///< all candidates, ascending DTW
  std::size_t trajectory_pixels = 0;  ///< size of the isolated trajectory
  int num_candidates = 0;
  /// True when the frame pair betrayed an unnoticed dish reboot (the new
  /// frame lost pixels the old one had); identification then ran on the
  /// fresh frame directly instead of the XOR.
  bool reset_detected = false;
  /// Connected components in the isolated frame (diagnostic; 1 is clean).
  std::size_t num_components = 0;
  /// Confidence in `best`, in [0, 1]: the relative DTW margin over the
  /// runner-up, attenuated when the winning distance itself is poor. 0 when
  /// abstained or without evidence.
  double confidence = 0.0;
  AbstainReason abstain = AbstainReason::kNone;

  [[nodiscard]] bool abstained() const {
    return abstain != AbstainReason::kNone;
  }
};

struct IdentifierConfig {
  int dtw_band = 16;  ///< Sakoe-Chiba half-width (pixels ~ samples)
};

class SatelliteIdentifier {
 public:
  SatelliteIdentifier(const constellation::Catalog& catalog,
                      obsmap::MapGeometry geometry, time::SlotGrid grid,
                      IdentifierConfig config = {})
      : catalog_(catalog), geometry_(geometry), grid_(grid), config_(config) {}

  /// Identify the satellite serving `terminal` during `slot`, from the
  /// obstruction-map frames fetched at the end of slot-1 and slot. Without
  /// `snapshots` the candidates come from the catalog's spatial index in
  /// O(visible). A caller that already holds a whole-catalog propagation for
  /// the slot midpoint (one shared by several terminals) may pass it as
  /// `snapshots` instead; both give the same candidates.
  [[nodiscard]] Identification identify(
      const ground::Terminal& terminal, time::SlotIndex slot,
      const obsmap::ObstructionMap& prev_frame,
      const obsmap::ObstructionMap& curr_frame,
      std::span<const constellation::Catalog::Snapshot> snapshots = {}) const;

  /// Identify from an already-isolated trajectory frame. Candidate scoring
  /// (path sampling + both DTW traversals per candidate) is partitioned over
  /// the exec::default_pool(); scores are assembled in candidate order so
  /// the result is bit-identical at any thread count.
  [[nodiscard]] Identification identify_isolated(
      const ground::Terminal& terminal, time::SlotIndex slot,
      const obsmap::ObstructionMap& isolated,
      std::span<const constellation::Catalog::Snapshot> snapshots = {}) const;

  /// The painted sky path a candidate would leave during a slot, in plane
  /// coordinates (exposed for validation plots and tests).
  [[nodiscard]] std::vector<Point2> candidate_path(
      std::size_t catalog_index, const ground::Terminal& terminal,
      time::SlotIndex slot) const;

 private:
  const constellation::Catalog& catalog_;
  obsmap::MapGeometry geometry_;
  time::SlotGrid grid_;
  IdentifierConfig config_;
};

}  // namespace starlab::match
