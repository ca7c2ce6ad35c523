// Best-first top-2 identification against full scoring.
//
// SatelliteIdentifier scores candidates in ascending order of a DTW lower
// bound and stops once a bound exceeds the runner-up's score. The reference
// here scores every candidate the way the identifier did before pruning:
// each path through Catalog::look_at, both DTW traversals, a stable sort by
// distance. identify must agree with it bit for bit on `best`, `abstain`,
// `confidence` and the two `ranked` entries: on clean Gen1 and Gen2 windows,
// on dropped, corrupted and reset frames, and under a recovered map
// geometry. The bound's two premises are checked directly on the same slots.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "core/pipeline.hpp"
#include "fault/injectors.hpp"
#include "match/identifier.hpp"
#include "obsmap/components.hpp"
#include "obsmap/painter.hpp"
#include "test_helpers.hpp"

namespace starlab::match {
namespace {

using starlab::testing::tiny_gen2_scenario;
using starlab::testing::tiny_scenario;

/// identifier.cpp's decision rule, restated for the reference.
constexpr double kAbstainMargin = 0.02;
constexpr double kAbstainMaxDtw = 30.0;

/// One observed frame pair, as InferencePipeline::run hands it to identify.
struct SlotInput {
  time::SlotIndex slot = 0;
  obsmap::ObstructionMap prev, curr;
};

struct Walk {
  std::size_t terminal = 0;
  double seconds = 900.0;
  std::optional<fault::FaultPlan> faults;
  /// Reboot the dish every this many slots without the walker noticing, so
  /// the next pair betrays a reset.
  int silent_reset_every = 0;
};

/// The frame pairs a terminal observes over a window: the dish paints the
/// serving satellite every slot, a dropped poll leaves the previous frame
/// as a stale baseline, and a corrupted one arrives with flipped pixels.
std::vector<SlotInput> walk(const core::Scenario& sc, const Walk& w) {
  const ground::Terminal& terminal = sc.terminal(w.terminal);
  obsmap::MapRecorder recorder(sc.catalog(), terminal, sc.grid());
  const fault::FrameFaultInjector faults(w.faults.value_or(fault::FaultPlan{}));
  const time::SlotIndex first = sc.first_slot();
  const auto num_slots =
      static_cast<time::SlotIndex>(w.seconds / sc.grid().period_seconds());
  std::vector<SlotInput> out;
  std::optional<obsmap::ObstructionMap> prev;
  for (time::SlotIndex s = first; s < first + num_slots; ++s) {
    if (w.silent_reset_every > 0 && s != first &&
        (s - first) % w.silent_reset_every == 0) {
      recorder.reset();
    }
    obsmap::ObstructionMap frame =
        recorder.record_slot(sc.global_scheduler().allocate(terminal, s));
    if (w.faults.has_value()) {
      if (faults.frame_dropped(w.terminal, s)) continue;
      faults.corrupt(frame, w.terminal, s);
    }
    if (prev.has_value()) out.push_back({s, *prev, frame});
    prev = std::move(frame);
  }
  return out;
}

/// 15 minutes of clean frames from one terminal.
std::vector<SlotInput> clean_walk(const core::Scenario& sc,
                                  std::size_t terminal) {
  Walk w;
  w.terminal = terminal;
  return walk(sc, w);
}

/// The trajectory identify matches: the largest component, chained.
std::vector<Point2> dominant_trajectory(const obsmap::ObstructionMap& isolated,
                                        const obsmap::MapGeometry& geometry) {
  const std::vector<std::vector<obsmap::Pixel>> components =
      obsmap::connected_components(isolated);
  if (components.empty()) return {};
  obsmap::ObstructionMap dominant;
  for (const obsmap::Pixel& p : components.front()) dominant.set(p);
  return extract_trajectory(dominant, geometry);
}

/// A candidate's path sampled one Catalog::look_at call per instant.
std::vector<Point2> look_at_path(const constellation::Catalog& catalog,
                                 std::size_t catalog_index,
                                 const ground::Terminal& terminal,
                                 const time::SlotGrid& grid,
                                 time::SlotIndex slot,
                                 const obsmap::MapGeometry& geometry) {
  std::vector<Point2> path;
  for (double t = grid.slot_start(slot); t < grid.slot_end(slot);
       t += obsmap::kPathSampleSec) {
    const geo::LookAngles look = catalog.look_at(
        catalog_index, terminal.site(), time::JulianDate::from_unix_seconds(t));
    if (look.elevation() < geometry.min_elevation) continue;
    path.push_back(sky_to_plane(
        obsmap::SkyPoint::from(look.azimuth(), look.elevation()), geometry));
  }
  return path;
}

std::vector<constellation::SkyEntry> slot_candidates(
    const constellation::Catalog& catalog, const ground::Terminal& terminal,
    const time::SlotGrid& grid, time::SlotIndex slot) {
  return catalog.visible_from(
      terminal.site(), time::JulianDate::from_unix_seconds(grid.slot_mid(slot)),
      terminal.min_elevation());
}

/// Full scoring: every candidate, both traversals, stable sort by DTW.
std::vector<MatchScore> score_every_candidate(
    const constellation::Catalog& catalog, const obsmap::MapGeometry& geometry,
    const time::SlotGrid& grid, const ground::Terminal& terminal,
    time::SlotIndex slot, const std::vector<Point2>& traj) {
  const std::vector<Point2> reversed(traj.rbegin(), traj.rend());
  const int band = IdentifierConfig{}.dtw_band;
  std::vector<MatchScore> ranked;
  for (const constellation::SkyEntry& c :
       slot_candidates(catalog, terminal, grid, slot)) {
    const std::vector<Point2> path =
        look_at_path(catalog, c.catalog_index, terminal, grid, slot, geometry);
    if (path.empty()) continue;
    ranked.push_back({c.catalog_index, c.norad_id,
                      std::min(dtw_distance_normalized(traj, path, band),
                               dtw_distance_normalized(reversed, path, band))});
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const MatchScore& a, const MatchScore& b) {
                     return a.dtw < b.dtw;
                   });
  return ranked;
}

/// What identify decides from a full ranking.
struct Decision {
  std::optional<MatchScore> best;
  AbstainReason abstain = AbstainReason::kNone;
  double confidence = 0.0;
};

Decision decide(const std::vector<MatchScore>& ranked) {
  Decision d;
  if (ranked.empty() || ranked.front().dtw >= 1e300) return d;
  const double d_best = ranked.front().dtw;
  double margin = 1.0;
  if (ranked.size() >= 2 && ranked[1].dtw < 1e300 && ranked[1].dtw > 0.0) {
    margin = (ranked[1].dtw - d_best) / ranked[1].dtw;
  }
  if (d_best > kAbstainMaxDtw) {
    d.abstain = AbstainReason::kHighDistance;
  } else if (margin < kAbstainMargin) {
    d.abstain = AbstainReason::kLowMargin;
  } else {
    d.best = ranked.front();
    d.confidence = margin * std::max(0.0, 1.0 - d_best / kAbstainMaxDtw);
  }
  return d;
}

void expect_same_score(const MatchScore& a, const MatchScore& b,
                       time::SlotIndex slot) {
  EXPECT_EQ(a.catalog_index, b.catalog_index) << "slot " << slot;
  EXPECT_EQ(a.norad_id, b.norad_id) << "slot " << slot;
  EXPECT_EQ(a.dtw, b.dtw) << "slot " << slot;  // bitwise
}

struct Tally {
  int compared = 0;  ///< slots that reached candidate scoring
  int decided = 0;
  int resets = 0;
};

/// identify on every pair of `inputs` against the full-scoring reference,
/// counting into `tally`.
void expect_matches_full_scoring(const core::Scenario& sc,
                                 std::size_t terminal_index,
                                 const std::vector<SlotInput>& inputs,
                                 const obsmap::MapGeometry& geometry,
                                 Tally& tally) {
  const ground::Terminal& terminal = sc.terminal(terminal_index);
  const SatelliteIdentifier identifier(sc.catalog(), geometry, sc.grid());
  for (const SlotInput& in : inputs) {
    const Identification id =
        identifier.identify(terminal, in.slot, in.prev, in.curr,
                            starlab::testing::slot_sky(sc, terminal, in.slot));
    tally.resets += id.reset_detected ? 1 : 0;
    if (id.abstain == AbstainReason::kStarvedTrajectory ||
        id.abstain == AbstainReason::kAmbiguousComponents) {
      EXPECT_TRUE(id.ranked.empty()) << "slot " << in.slot;
      continue;
    }
    ++tally.compared;
    const obsmap::ObstructionMap isolated =
        id.reset_detected ? in.curr : in.curr.exclusive_or(in.prev);
    const std::vector<MatchScore> full = score_every_candidate(
        sc.catalog(), geometry, sc.grid(), terminal, in.slot,
        dominant_trajectory(isolated, geometry));

    ASSERT_EQ(id.ranked.size(), std::min<std::size_t>(2, full.size()))
        << "slot " << in.slot;
    for (std::size_t i = 0; i < id.ranked.size(); ++i) {
      expect_same_score(id.ranked[i], full[i], in.slot);
    }
    const Decision want = decide(full);
    EXPECT_EQ(id.abstain, want.abstain) << "slot " << in.slot;
    EXPECT_EQ(id.confidence, want.confidence) << "slot " << in.slot;
    ASSERT_EQ(id.best.has_value(), want.best.has_value()) << "slot " << in.slot;
    if (id.best.has_value()) {
      expect_same_score(*id.best, *want.best, in.slot);
      ++tally.decided;
    }
  }
}

/// A §4.1 geometry recovered from a short fill, which lands off the
/// published (61, 61)/45 px layout.
const obsmap::MapGeometry& recovered_geometry() {
  static const obsmap::MapGeometry geometry =
      core::InferencePipeline::recover_geometry_via_fill(tiny_scenario(), 0,
                                                         2.0)
          .value()
          .geometry;
  return geometry;
}

TEST(IdentifierTopK, MatchesFullScoringOnGen1Window) {
  Tally tally;
  for (std::size_t t = 0; t < tiny_scenario().terminals().size(); ++t) {
    expect_matches_full_scoring(tiny_scenario(), t,
                                clean_walk(tiny_scenario(), t),
                                obsmap::MapGeometry{}, tally);
  }
  EXPECT_GT(tally.compared, 150);
  EXPECT_GT(tally.decided, 100);
}

TEST(IdentifierTopK, MatchesFullScoringOnGen2Window) {
  Tally tally;
  expect_matches_full_scoring(tiny_gen2_scenario(), 0,
                              clean_walk(tiny_gen2_scenario(), 0),
                              obsmap::MapGeometry{}, tally);
  EXPECT_GT(tally.compared, 40);
  EXPECT_GT(tally.decided, 30);
}

TEST(IdentifierTopK, MatchesFullScoringOnFaultedAndResetFrames) {
  fault::FaultPlan plan;
  plan.frame.drop_rate = 0.15;
  plan.frame.bit_flip_rate = 0.01;
  Walk w;
  w.terminal = 1;
  w.seconds = 1800.0;
  w.faults = plan;
  w.silent_reset_every = 17;
  Tally tally;
  expect_matches_full_scoring(tiny_scenario(), w.terminal,
                              walk(tiny_scenario(), w), obsmap::MapGeometry{},
                              tally);
  EXPECT_GT(tally.compared, 60);
  EXPECT_GT(tally.resets, 2);
}

TEST(IdentifierTopK, MatchesFullScoringUnderRecoveredGeometry) {
  ASSERT_NE(recovered_geometry(), obsmap::MapGeometry{});
  Tally tally;
  expect_matches_full_scoring(tiny_scenario(), 2,
                              clean_walk(tiny_scenario(), 2),
                              recovered_geometry(), tally);
  EXPECT_GT(tally.compared, 40);
}

/// The two facts the pruning rests on, for every candidate of every slot:
/// its sampled path stays within R of its mid-slot plane point, and the
/// lower bound built from R never exceeds its DTW distance.
void expect_bound_premises(const core::Scenario& sc, std::size_t terminal_index,
                           const std::vector<SlotInput>& inputs,
                           const obsmap::MapGeometry& geometry) {
  const ground::Terminal& terminal = sc.terminal(terminal_index);
  const time::SlotGrid& grid = sc.grid();
  const SatelliteIdentifier identifier(sc.catalog(), geometry, grid);
  const geo::EcefKm observer = geo::geodetic_to_ecef(terminal.site());
  const int band = IdentifierConfig{}.dtw_band;
  int checked = 0;
  for (const SlotInput& in : inputs) {
    const std::vector<Point2> traj =
        dominant_trajectory(in.curr.exclusive_or(in.prev), geometry);
    const std::vector<Point2> reversed(traj.rbegin(), traj.rend());
    const obsmap::PathSampler sampler =
        identifier.slot_sampler(terminal, in.slot);
    for (const constellation::SkyEntry& c :
         slot_candidates(sc.catalog(), terminal, grid, in.slot)) {
      const Point2 mid = sky_to_plane(
          obsmap::SkyPoint::from(c.look.azimuth(), c.look.elevation()),
          geometry);
      const double reach = plane_reach_px(
          sc.catalog().ephemeris(c.catalog_index).max_sky_rate(observer),
          c.look.elevation(), geometry, 0.5 * grid.period_seconds());
      ASSERT_TRUE(std::isfinite(reach)) << "NORAD " << c.norad_id;

      const std::vector<Point2> path =
          identifier.candidate_path(c.catalog_index, sampler);
      const std::vector<Point2> reference = look_at_path(
          sc.catalog(), c.catalog_index, terminal, grid, in.slot, geometry);
      ASSERT_EQ(path.size(), reference.size());
      for (std::size_t i = 0; i < path.size(); ++i) {
        EXPECT_EQ(path[i].x, reference[i].x);  // the sampler is bit-identical
        EXPECT_EQ(path[i].y, reference[i].y);
        EXPECT_LE(std::hypot(path[i].x - mid.x, path[i].y - mid.y), reach)
            << "NORAD " << c.norad_id << " slot " << in.slot;
      }
      if (path.empty() || traj.empty()) continue;
      const double lower_bound = dtw_lower_bound(traj, mid, reach);
      EXPECT_LE(lower_bound,
                std::min(dtw_distance_normalized(traj, path, band),
                         dtw_distance_normalized(reversed, path, band)))
          << "NORAD " << c.norad_id << " slot " << in.slot;
      ++checked;
    }
  }
  EXPECT_GT(checked, 100);
}

TEST(IdentifierTopK, BoundPremisesHoldOnGen1AndGen2) {
  expect_bound_premises(tiny_scenario(), 0, clean_walk(tiny_scenario(), 0),
                        obsmap::MapGeometry{});
  expect_bound_premises(tiny_gen2_scenario(), 3,
                        clean_walk(tiny_gen2_scenario(), 3),
                        obsmap::MapGeometry{});
  expect_bound_premises(tiny_scenario(), 2, clean_walk(tiny_scenario(), 2),
                        recovered_geometry());
}

TEST(IdentifierTopK, LowerBoundIsZeroInsideTheReachAndGrowsOutside) {
  const std::vector<Point2> traj{{10.0, 0.0}, {11.0, 0.0}, {12.0, 0.0}};
  EXPECT_EQ(dtw_lower_bound(traj, {0.0, 0.0}, 10.0), 0.0);
  EXPECT_EQ(dtw_lower_bound(traj, {0.0, 0.0}, 4.0), 18.0);  // (10 - 4)^2 / 2
  EXPECT_EQ(dtw_lower_bound({}, {0.0, 0.0}, 1.0), 0.0);
  // A path pinned to the centre meets the bound's worst case: DTW of the
  // three points against one point at distance 10, 11, 12, over 4 points.
  const std::vector<Point2> pinned{{0.0, 0.0}};
  EXPECT_LE(dtw_lower_bound(traj, {0.0, 0.0}, 0.0),
            dtw_distance_normalized(traj, pinned));
}

TEST(IdentifierTopK, ReachIsUnboundedWhereTheProjectionIs) {
  const sgp4::Ephemeris& eph = tiny_scenario().catalog().ephemeris(0);
  const geo::EcefKm observer =
      geo::geodetic_to_ecef(tiny_scenario().terminal(0).site());
  const double rate = eph.max_sky_rate(observer);
  ASSERT_TRUE(std::isfinite(rate));
  // Starlink crosses at most a few degrees of sky per second.
  EXPECT_GT(rate, 0.005);
  EXPECT_LT(rate, 0.05);

  obsmap::MapGeometry off_zenith;
  off_zenith.max_elevation = geo::Deg(85.0);
  EXPECT_TRUE(std::isinf(
      plane_reach_px(rate, geo::Deg(40.0), off_zenith, 7.5)));
  EXPECT_TRUE(std::isinf(plane_reach_px(
      std::numeric_limits<double>::infinity(), geo::Deg(40.0),
      obsmap::MapGeometry{}, 7.5)));
  // A satellite below the observer's own radius has no finite rate bound.
  EXPECT_TRUE(std::isinf(eph.max_sky_rate(geo::EcefKm(geo::Vec3{
      8000.0, 0.0, 0.0}))));
}

}  // namespace
}  // namespace starlab::match
