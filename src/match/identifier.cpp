#include "match/identifier.hpp"

#include <algorithm>
#include <bit>
#include <string>

#include "check/contracts.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obsmap/components.hpp"
#include "obsmap/painter.hpp"

namespace starlab::match {

namespace {

/// Fewer isolated trajectory pixels than this: give up on the slot.
constexpr std::size_t kMinTrajectoryPixels = 4;
/// Abstain when the runner-up's DTW distance is within this relative margin
/// of the winner's: the evidence cannot tell the two apart.
constexpr double kAbstainMargin = 0.02;
/// Abstain when the winning normalized DTW distance (squared pixels per
/// warping step) exceeds this: nothing in the sky actually fits the blob.
constexpr double kAbstainMaxDtw = 30.0;
/// Abstain when the second-largest connected component holds at least this
/// fraction of the largest one's pixels (and is itself at least
/// kMinTrajectoryPixels): two trajectories are mixed in one frame, and which
/// of them belongs to *this* slot is unknowable.
constexpr double kAmbiguousComponentRatio = 0.6;
/// Reset detection: how many accumulated pixels the current frame may have
/// *lost* before the pair is declared a reboot. A genuine reset wipes
/// hundreds; transport bit flips lose a handful. Clean frames lose none.
constexpr int kResetPixelTolerance = 8;

/// Pre-registered identifier metrics: the DTW candidate loop is the §4 hot
/// path, so every handle is an atomic add behind the process-wide switch.
struct IdentifierMetrics {
  obs::Counter slots, candidates_scored, dtw_evals, abstentions, resets;
  obs::Histogram candidates_per_slot, best_dtw, trajectory_pixels;

  static const IdentifierMetrics& get() {
    static const IdentifierMetrics m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
      IdentifierMetrics x;
      x.slots = reg.counter("starlab_identifier_slots_total",
                            "Slots the identifier was asked about");
      x.candidates_scored =
          reg.counter("starlab_identifier_candidates_scored_total",
                      "Candidate satellites scored against a trajectory");
      x.dtw_evals = reg.counter(
          "starlab_identifier_dtw_evals_total",
          "DTW distance evaluations (two traversals per candidate)");
      x.abstentions = reg.counter("starlab_identifier_abstentions_total",
                                  "Slots the identifier declined to answer");
      x.resets = reg.counter("starlab_identifier_resets_detected_total",
                             "Frame pairs betraying an unnoticed dish reset");
      x.candidates_per_slot = reg.histogram(
          "starlab_identifier_candidates_per_slot",
          {5.0, 10.0, 20.0, 40.0, 80.0, 160.0},
          "Candidate satellites in the field of view per identified slot");
      x.best_dtw = reg.histogram(
          "starlab_identifier_best_dtw",
          {0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0, 60.0},
          "Winning normalized DTW distance per decided slot");
      x.trajectory_pixels = reg.histogram(
          "starlab_identifier_trajectory_pixels",
          {4.0, 8.0, 16.0, 32.0, 64.0, 128.0},
          "Isolated trajectory size per slot, in pixels");
      return x;
    }();
    return m;
  }
};

}  // namespace

std::vector<Point2> SatelliteIdentifier::candidate_path(
    std::size_t catalog_index, const ground::Terminal& terminal,
    time::SlotIndex slot) const {
  std::vector<Point2> path;
  const double t_begin = grid_.slot_start(slot);
  const double t_end = grid_.slot_end(slot);
  for (double t = t_begin; t < t_end; t += obsmap::kPathSampleSec) {
    const time::JulianDate jd = time::JulianDate::from_unix_seconds(t);
    const geo::LookAngles look =
        catalog_.look_at(catalog_index, terminal.site(), jd);
    if (look.elevation() < geometry_.min_elevation) continue;
    path.push_back(sky_to_plane(
        obsmap::SkyPoint::from(look.azimuth(), look.elevation()), geometry_));
  }
  return path;
}

Identification SatelliteIdentifier::identify_isolated(
    const ground::Terminal& terminal, time::SlotIndex slot,
    const obsmap::ObstructionMap& isolated,
    std::span<const constellation::Catalog::Snapshot> snapshots) const {
  const obs::ObsSpan span("identifier.identify");
  const IdentifierMetrics& metrics = IdentifierMetrics::get();
  metrics.slots.add();
  Identification out;

  // Match only the largest connected component of the isolated frame:
  // stray un-cancelled pixels from partial overlaps would otherwise drag the
  // chained trajectory across the sky.
  std::vector<Point2> traj;
  const std::vector<std::vector<obsmap::Pixel>> components =
      obsmap::connected_components(isolated);
  out.num_components = components.size();
  if (!components.empty()) {
    obsmap::ObstructionMap dominant;
    for (const obsmap::Pixel& p : components.front()) dominant.set(p);
    traj = extract_trajectory(dominant, geometry_);
  }
  // Two comparable blobs mean two satellites' paths ended up in one isolated
  // frame (stale XOR baseline, mid-window reboot): whichever one we match,
  // the slot attribution would be a guess.
  if (components.size() >= 2 &&
      components[1].size() >= kMinTrajectoryPixels &&
      static_cast<double>(components[1].size()) >=
          kAmbiguousComponentRatio *
              static_cast<double>(components[0].size())) {
    out.abstain = AbstainReason::kAmbiguousComponents;
  }
  out.trajectory_pixels = traj.size();
  metrics.trajectory_pixels.observe(static_cast<double>(traj.size()));
  if (traj.size() < kMinTrajectoryPixels) {
    out.abstain = AbstainReason::kStarvedTrajectory;
    metrics.abstentions.add();
    return out;
  }
  if (out.abstained()) {
    metrics.abstentions.add();
    return out;
  }

  // The map does not encode direction of motion: score both traversals.
  std::vector<Point2> reversed(traj.rbegin(), traj.rend());

  const time::JulianDate jd_mid =
      time::JulianDate::from_unix_seconds(grid_.slot_mid(slot));
  // Candidate query above the terminal's field-of-view floor: through the
  // spatial index, or against the caller's whole-catalog snapshots when
  // provided. Both produce the same entries in the same order.
  const std::vector<constellation::SkyEntry> candidates =
      snapshots.empty()
          ? catalog_.visible_from(terminal.site(), jd_mid,
                                  terminal.min_elevation())
          : catalog_.visible_from_snapshots(snapshots, terminal.site(), jd_mid,
                                            terminal.min_elevation());
  out.num_candidates = static_cast<int>(candidates.size());
  metrics.candidates_per_slot.observe(static_cast<double>(candidates.size()));

  // §4's hot loop: per-candidate path sampling plus two DTW traversals.
  // Scored in parallel into a slot-per-candidate buffer, then assembled in
  // candidate order — bit-identical to the serial loop at any thread count.
  struct ScoredCandidate {
    bool present = false;
    MatchScore score;
  };
  std::vector<ScoredCandidate> scored(candidates.size());
  // The per-candidate path buffer is this loop's output, and
  // Ephemeris::look_from (behind candidate_path) throws for a satellite that
  // decayed mid-slot; DTW itself stays allocation-free.
  // starlint:hotpath starlint:allow(hotpath-alloc) starlint:allow(hotpath-throw)
  exec::default_pool().parallel_for(candidates.size(), [&](std::size_t k) {
    const constellation::SkyEntry& c = candidates[k];
    const std::vector<Point2> path =
        candidate_path(c.catalog_index, terminal, slot);
    if (path.empty()) return;

    const double d_fwd = dtw_distance_normalized(traj, path, config_.dtw_band);
    const double d_rev =
        dtw_distance_normalized(reversed, path, config_.dtw_band);

    scored[k].present = true;
    scored[k].score.catalog_index = c.catalog_index;
    scored[k].score.norad_id = c.norad_id;
    scored[k].score.dtw = std::min(d_fwd, d_rev);
  });
  for (const ScoredCandidate& sc : scored) {
    if (sc.present) out.ranked.push_back(sc.score);
  }
  metrics.dtw_evals.add(2 * out.ranked.size());
  metrics.candidates_scored.add(out.ranked.size());

  std::sort(out.ranked.begin(), out.ranked.end(),
            [](const MatchScore& a, const MatchScore& b) {
              return a.dtw < b.dtw;
            });
  STARLAB_INVARIANT(
      out.ranked.empty() || out.ranked.front().dtw >= 0.0,
      "DTW distances must be non-negative after ranking");
  if (out.ranked.empty() || out.ranked.front().dtw >= 1e300) return out;

  const double d_best = out.ranked.front().dtw;
  double margin = 1.0;
  if (out.ranked.size() >= 2 && out.ranked[1].dtw < 1e300 &&
      out.ranked[1].dtw > 0.0) {
    margin = (out.ranked[1].dtw - d_best) / out.ranked[1].dtw;
  }
  const double fit = std::max(0.0, 1.0 - d_best / kAbstainMaxDtw);
  out.confidence = margin * fit;
  STARLAB_ENSURE(out.confidence >= 0.0 && out.confidence <= 1.0,
                 "identifier confidence out of [0, 1]: " +
                     std::to_string(out.confidence));

  if (d_best > kAbstainMaxDtw) {
    out.abstain = AbstainReason::kHighDistance;
    out.confidence = 0.0;
    metrics.abstentions.add();
    return out;
  }
  if (margin < kAbstainMargin) {
    out.abstain = AbstainReason::kLowMargin;
    out.confidence = 0.0;
    metrics.abstentions.add();
    return out;
  }
  out.best = out.ranked.front();
  metrics.best_dtw.observe(d_best);
  return out;
}

namespace {

/// Pixels set in `prev` but missing from `curr` — the evidence that the
/// dish's monotone accumulation was interrupted. Word-wise: pixels are
/// 0x00/0x01 bytes, so `prev & ~curr` has exactly one bit per lost pixel.
int pixels_lost(const obsmap::ObstructionMap& prev,
                const obsmap::ObstructionMap& curr) {
  int lost = 0;
  for (std::size_t i = 0; i < obsmap::ObstructionMap::kNumWords; ++i) {
    lost += std::popcount(prev.word(i) & ~curr.word(i));
  }
  return lost;
}

}  // namespace

Identification SatelliteIdentifier::identify(
    const ground::Terminal& terminal, time::SlotIndex slot,
    const obsmap::ObstructionMap& prev_frame,
    const obsmap::ObstructionMap& curr_frame,
    std::span<const constellation::Catalog::Snapshot> snapshots) const {
  // A dish accumulates monotonically between reboots: if the previous frame
  // is NOT a subset of the current one, the dish was reset in between and
  // the current frame holds only the newest trajectory — use it directly
  // instead of an XOR that would resurrect the whole old sky. A few lost
  // pixels are tolerated (transport bit flips, see kResetPixelTolerance):
  // they end up as stray XOR pixels that the largest-component filter
  // already discards, while treating them as a reboot would wrongly match
  // against the whole accumulated sky.
  const bool reset =
      pixels_lost(prev_frame, curr_frame) > kResetPixelTolerance;
  if (reset) {
    Identification id = identify_isolated(terminal, slot, curr_frame, snapshots);
    id.reset_detected = true;
    IdentifierMetrics::get().resets.add();
    return id;
  }
  return identify_isolated(terminal, slot, curr_frame.exclusive_or(prev_frame),
                           snapshots);
}

}  // namespace starlab::match
