#include "match/identifier.hpp"

#include <algorithm>
#include <bit>
#include <string>
#include <tuple>

#include "check/contracts.hpp"
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
/// Reset detection: how many accumulated streak pixels (pixels with a set
/// neighbour) the current frame may have *lost* before the pair is declared
/// a reboot. A genuine reset wipes hundreds; transport bit flips in the
/// current frame lose a handful. Clean frames lose none.
constexpr int kResetPixelTolerance = 8;
/// Candidates kept in `Identification::ranked`: the winner and the runner-up
/// the margin is taken against.
constexpr std::size_t kTopK = 2;
/// plane_reach_px's safety factor, for what the sky-rate bound leaves out
/// (SGP4's osculating speed against the vis-viva one) and the rounding in
/// the lower bound and in the DTW sums it is compared with.
constexpr double kReachSafetyFactor = 1.25;

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
      x.candidates_scored = reg.counter(
          "starlab_identifier_candidates_scored_total",
          "Candidate satellites scored against a trajectory (those the DTW "
          "lower bound could not rule out)");
      x.dtw_evals = reg.counter(
          "starlab_identifier_dtw_evals_total",
          "DTW distance evaluations (two traversals per scored candidate)");
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

/// True when every point of `path` lies within `reach` of `mid`.
bool within_reach(const std::vector<Point2>& path, Point2 mid, double reach) {
  return std::all_of(path.begin(), path.end(), [&](const Point2& p) {
    return local_cost(p, mid) <= reach * reach;
  });
}

}  // namespace

double plane_reach_px(double max_sky_rate, geo::Deg elevation,
                      const obsmap::MapGeometry& geometry, double seconds) {
  const geo::Rad swept(max_sky_rate * seconds);
  return kReachSafetyFactor *
         geometry.max_scale(elevation - geo::to_deg(swept)) * swept.value();
}

obsmap::PathSampler SatelliteIdentifier::slot_sampler(
    const ground::Terminal& terminal, time::SlotIndex slot) const {
  return obsmap::PathSampler(catalog_, terminal.site(), grid_.slot_start(slot),
                             grid_.slot_end(slot));
}

std::vector<Point2> SatelliteIdentifier::candidate_path(
    std::size_t catalog_index, const obsmap::PathSampler& sampler) const {
  std::vector<Point2> path;
  for (std::size_t k = 0; k < sampler.size(); ++k) {
    const geo::LookAngles look = sampler.look(catalog_index, k);
    if (look.elevation() < geometry_.min_elevation) continue;
    path.push_back(sky_to_plane(
        obsmap::SkyPoint::from(look.azimuth(), look.elevation()), geometry_));
  }
  return path;
}

Identification SatelliteIdentifier::identify_isolated(
    const ground::Terminal& terminal, time::SlotIndex slot,
    const obsmap::ObstructionMap& isolated,
    std::span<const ground::Candidate> sky) const {
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

  out.num_candidates = static_cast<int>(sky.size());
  metrics.candidates_per_slot.observe(static_cast<double>(sky.size()));

  // §4's hot loop, best-first. A candidate's path stays within its reach R
  // of its plane point at mid-slot (the sky entry's own look, free here), so
  // dtw_lower_bound bounds its score before any sampling. Scoring in
  // ascending bound order, the first bound strictly above the runner-up's
  // score rules out every later candidate: `ranked` is the exact top two.
  // The slot's sample instants and the terminal's frame are evaluated once,
  // for every path sampled.
  const obsmap::PathSampler sampler = slot_sampler(terminal, slot);
  const double half_slot_s = 0.5 * grid_.period_seconds();
  struct Bounded {
    double lower_bound;
    std::size_t k;  ///< index into `sky`: ties keep candidate order
    Point2 mid;
    double reach;
  };
  std::vector<Bounded> order;
  order.reserve(sky.size());
  for (std::size_t k = 0; k < sky.size(); ++k) {
    const constellation::SkyEntry& c = sky[k].sky;
    const Point2 mid = sky_to_plane(
        obsmap::SkyPoint::from(c.look.azimuth(), c.look.elevation()),
        geometry_);
    const double reach = plane_reach_px(
        catalog_.ephemeris(c.catalog_index)
            .max_sky_rate(sampler.observer().ecef_km),
        c.look.elevation(), geometry_, half_slot_s);
    order.push_back({dtw_lower_bound(traj, mid, reach), k, mid, reach});
  }
  std::sort(order.begin(), order.end(), [](const Bounded& a, const Bounded& b) {
    return std::tie(a.lower_bound, a.k) < std::tie(b.lower_bound, b.k);
  });

  struct Ranked {
    MatchScore score;
    std::size_t k;
  };
  const auto ranks_before = [](const Ranked& a, const Ranked& b) {
    return std::tie(a.score.dtw, a.k) < std::tie(b.score.dtw, b.k);
  };
  std::vector<Ranked> top;  // ascending, at most kTopK
  std::size_t num_scored = 0;
  // PathSampler::look throws sgp4::Sgp4Error for a satellite that decays
  // mid-slot; the error reaches identify's caller.
  for (const Bounded& b : order) {
    if (top.size() == kTopK && b.lower_bound > top.back().score.dtw) break;
    const constellation::SkyEntry& c = sky[b.k].sky;
    const std::vector<Point2> path = candidate_path(c.catalog_index, sampler);
    if (path.empty()) continue;
    STARLAB_ENSURE(within_reach(path, b.mid, b.reach),
                   "candidate " + std::to_string(c.norad_id) +
                       " strays beyond its reach bound of " +
                       std::to_string(b.reach) + " px");

    const double d_fwd = dtw_distance_normalized(traj, path, config_.dtw_band);
    const double d_rev =
        dtw_distance_normalized(reversed, path, config_.dtw_band);
    ++num_scored;

    const Ranked r{{c.catalog_index, c.norad_id, std::min(d_fwd, d_rev)}, b.k};
    top.insert(std::upper_bound(top.begin(), top.end(), r, ranks_before), r);
    if (top.size() > kTopK) top.pop_back();
  }
  for (const Ranked& r : top) out.ranked.push_back(r.score);
  metrics.dtw_evals.add(2 * num_scored);
  metrics.candidates_scored.add(num_scored);

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

/// True when any of the 8 neighbours of (x, y) is set in `frame`.
bool has_set_neighbour(const obsmap::ObstructionMap& frame, int x, int y) {
  for (int dy = -1; dy <= 1; ++dy) {
    for (int dx = -1; dx <= 1; ++dx) {
      if ((dx != 0 || dy != 0) && frame.get(x + dx, y + dy)) return true;
    }
  }
  return false;
}

/// Pixels set in `prev` but missing from `curr` — the evidence that the
/// dish's monotone accumulation was interrupted — counting only those with
/// a set neighbour in `prev`. A reboot wipes whole streaks, whose pixels
/// have neighbours; a bit flip that added an isolated pixel to `prev` is
/// gone again from its clean successor and is no such evidence. A frame
/// holds one bit per pixel, so only the set bits of `prev & ~curr` are
/// visited and a clean pair costs one pass over the words.
int pixels_lost(const obsmap::ObstructionMap& prev,
                const obsmap::ObstructionMap& curr) {
  constexpr int kSize = obsmap::ObstructionMap::kSize;
  int lost = 0;
  for (std::size_t w = 0; w < obsmap::ObstructionMap::kNumWords; ++w) {
    for (std::uint64_t bits = prev.word(w) & ~curr.word(w); bits != 0;
         bits &= bits - 1) {
      const int i = static_cast<int>(w * 64) + std::countr_zero(bits);
      if (has_set_neighbour(prev, i % kSize, i / kSize)) ++lost;
    }
  }
  return lost;
}

}  // namespace

Identification SatelliteIdentifier::identify(
    const ground::Terminal& terminal, time::SlotIndex slot,
    const obsmap::ObstructionMap& prev_frame,
    const obsmap::ObstructionMap& curr_frame,
    std::span<const ground::Candidate> sky) const {
  // A dish accumulates monotonically between reboots: if the previous frame
  // is NOT a subset of the current one, the dish was reset in between and
  // the current frame holds only the newest trajectory — use it directly
  // instead of an XOR that would resurrect the whole old sky. Isolated
  // pixels that bit flips added to the previous frame are not counted as
  // lost, and a few lost streak pixels are tolerated (flips in the current
  // frame, see kResetPixelTolerance): both end up as stray XOR pixels that
  // the largest-component filter already discards, while treating them as
  // a reboot would wrongly match against the whole accumulated sky.
  const bool reset =
      pixels_lost(prev_frame, curr_frame) > kResetPixelTolerance;
  if (reset) {
    Identification id = identify_isolated(terminal, slot, curr_frame, sky);
    id.reset_detected = true;
    IdentifierMetrics::get().resets.add();
    return id;
  }
  return identify_isolated(terminal, slot, curr_frame.exclusive_or(prev_frame),
                           sky);
}

Identification SatelliteIdentifier::identify(
    const ground::Terminal& terminal, time::SlotIndex slot,
    const obsmap::ObstructionMap& prev_frame,
    const obsmap::ObstructionMap& curr_frame,
    std::span<const constellation::Catalog::Snapshot> snapshots) const {
  const time::JulianDate jd_mid =
      time::JulianDate::from_unix_seconds(grid_.slot_mid(slot));
  return identify(terminal, slot, prev_frame, curr_frame,
                  terminal.candidates_from_snapshots(catalog_, snapshots,
                                                     jd_mid));
}

}  // namespace starlab::match
