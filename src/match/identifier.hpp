#pragma once

// §4's headline method: identify the serving satellite from an isolated
// obstruction-map trajectory.
//
// For one 15-second slot: take the XOR-isolated trajectory, chain it into a
// sequence, and compare it by DTW against the painted sky paths of the
// candidate satellites in the terminal's field of view (propagated from
// TLEs). The candidates are the slot's sky, which the caller has already
// queried once (Terminal::candidates at the slot midpoint, the same set the
// global scheduler allocates from); the identifier makes no sky query of its
// own. The candidate with the lowest DTW distance is declared the serving
// satellite. Both traversal directions of the isolated path are tried
// because the map does not encode motion direction. Only the two best
// scores decide the slot, so candidates are scored best-first by a lower
// bound on their DTW distance, and those whose bound already exceeds the
// runner-up's score are never sampled.

#include <optional>
#include <span>
#include <vector>

#include "constellation/catalog.hpp"
#include "ground/terminal.hpp"
#include "match/dtw.hpp"
#include "match/trajectory.hpp"
#include "obsmap/obstruction_map.hpp"
#include "obsmap/painter.hpp"
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
  /// The exact two best candidates, ascending (DTW, candidate order): the
  /// winner and the runner-up `confidence` compares it with. Fewer when
  /// fewer candidates have a path on the map.
  std::vector<MatchScore> ranked;
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

/// R in identify_isolated's pruning bound: an upper bound [px] on how far a
/// satellite that crosses the sky at no more than `max_sky_rate` [rad/s]
/// (sgp4::Ephemeris::max_sky_rate) can move in the plane of `geometry`
/// within `seconds` of an instant at which it stands at `elevation`: the
/// sky arc it can sweep, at the projection's largest scale over the
/// elevations that arc can reach (MapGeometry::max_scale), with a safety
/// factor. +infinity when no finite bound holds. See docs/PERFORMANCE.md,
/// "Identification".
[[nodiscard]] double plane_reach_px(double max_sky_rate, geo::Deg elevation,
                                    const obsmap::MapGeometry& geometry,
                                    double seconds);

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
  /// obstruction-map frames fetched at the end of slot-1 and slot. `sky` is
  /// the terminal's field of view at the slot midpoint,
  /// `terminal.candidates(catalog, jd_mid)`: every entry above the elevation
  /// floor, usable or not, each of which is scored.
  [[nodiscard]] Identification identify(
      const ground::Terminal& terminal, time::SlotIndex slot,
      const obsmap::ObstructionMap& prev_frame,
      const obsmap::ObstructionMap& curr_frame,
      std::span<const ground::Candidate> sky) const;

  /// identify() with the sky derived from a whole-catalog propagation for
  /// the slot midpoint (`terminal.candidates_from_snapshots`). It exists for
  /// perfbench's per-layer replay and goes with ROADMAP item 1.
  [[nodiscard]] Identification identify(
      const ground::Terminal& terminal, time::SlotIndex slot,
      const obsmap::ObstructionMap& prev_frame,
      const obsmap::ObstructionMap& curr_frame,
      std::span<const constellation::Catalog::Snapshot> snapshots) const;

  /// Identify from an already-isolated trajectory frame against the slot's
  /// `sky` (as for identify()). Candidates are scored (path sampling + both
  /// DTW traversals) serially, in ascending order of dtw_lower_bound around
  /// their mid-slot plane point with plane_reach_px as the radius, until a
  /// bound exceeds the runner-up's score. `best`, `confidence` and `ranked`
  /// equal those of scoring every candidate.
  [[nodiscard]] Identification identify_isolated(
      const ground::Terminal& terminal, time::SlotIndex slot,
      const obsmap::ObstructionMap& isolated,
      std::span<const ground::Candidate> sky) const;

  /// The slot's path-sample instants as seen from `terminal`: one sampler
  /// serves every candidate path of the slot.
  [[nodiscard]] obsmap::PathSampler slot_sampler(
      const ground::Terminal& terminal, time::SlotIndex slot) const;

  /// The painted sky path a candidate would leave over the sampler's
  /// window, in plane coordinates (exposed for validation plots and tests).
  [[nodiscard]] std::vector<Point2> candidate_path(
      std::size_t catalog_index, const obsmap::PathSampler& sampler) const;

 private:
  const constellation::Catalog& catalog_;
  obsmap::MapGeometry geometry_;
  time::SlotGrid grid_;
  IdentifierConfig config_;
};

}  // namespace starlab::match
