#pragma once

// Shared fixtures for the starlab test suite. Scenario construction is the
// expensive part of most tests (SGP4 init for every satellite), so a small
// scenario is built once per test binary and shared read-only. The helpers
// after the scenarios build test inputs or summarize outputs; no shipped
// binary needs them.

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "constellation/walker.hpp"
#include "core/scenario.hpp"
#include "geo/angles.hpp"
#include "geo/frame_vec.hpp"
#include "geo/frames.hpp"
#include "geo/geodetic.hpp"
#include "geo/topocentric.hpp"
#include "geo/units.hpp"
#include "geo/vec3.hpp"
#include "ground/sites.hpp"
#include "ground/terminal.hpp"
#include "obsmap/obstruction_map.hpp"
#include "sun/solar_ephemeris.hpp"

namespace starlab::testing {

/// A 1/4-scale scenario (about 1000 satellites) with the paper's four
/// terminals. Built lazily, shared by all tests in a binary. Read-only.
inline const core::Scenario& small_scenario() {
  static const std::unique_ptr<core::Scenario> scenario = [] {
    return std::make_unique<core::Scenario>(
        core::Scenario::default_config(0.25));
  }();
  return *scenario;
}

/// An even smaller single-shell scenario for the hottest loops.
inline const core::Scenario& tiny_scenario() {
  static const std::unique_ptr<core::Scenario> scenario = [] {
    core::ScenarioConfig cfg = core::Scenario::default_config(0.125);
    return std::make_unique<core::Scenario>(std::move(cfg));
  }();
  return *scenario;
}

/// The Gen2 constellation at the 1/8 scale of tiny_scenario().
inline const core::Scenario& tiny_gen2_scenario() {
  static const std::unique_ptr<core::Scenario> scenario = [] {
    core::ScenarioConfig cfg = core::Scenario::default_config(0.125);
    cfg.constellation.gen2 = true;
    return std::make_unique<core::Scenario>(std::move(cfg));
  }();
  return *scenario;
}

/// Smallest absolute difference between two angles in degrees, in [0, 180].
inline double angular_difference_deg(double a, double b) {
  return std::fabs(geo::wrap_180(a - b));
}

inline geo::Vec3 cross(const geo::Vec3& a, const geo::Vec3& b) {
  return {a.y * b.z - a.z * b.y, a.z * b.x - a.x * b.z, a.x * b.y - a.y * b.x};
}

template <class Frame>
geo::FrameVec3<Frame> cross(const geo::FrameVec3<Frame>& a,
                            const geo::FrameVec3<Frame>& b) {
  return geo::FrameVec3<Frame>(cross(a.raw(), b.raw()));
}

/// The ECEF unit direction of (azimuth, elevation) in the observer's sky:
/// the inverse of geo::look_angles' direction part.
inline geo::EcefKm direction_from_look(const geo::Geodetic& observer,
                                       geo::Deg azimuth, geo::Deg elevation) {
  const double az = geo::to_rad(azimuth).value();
  const double el = geo::to_rad(elevation).value();
  // South-east-zenith components of a unit vector at (az, el).
  const double s = -std::cos(el) * std::cos(az);
  const double e = std::cos(el) * std::sin(az);
  const double z = std::sin(el);
  const double lat = geo::deg_to_rad(observer.latitude_deg);
  const double lon = geo::deg_to_rad(observer.longitude_deg);
  const double sin_lat = std::sin(lat), cos_lat = std::cos(lat);
  const double sin_lon = std::sin(lon), cos_lon = std::cos(lon);
  return geo::EcefKm(geo::Vec3{
      sin_lat * cos_lon * s - sin_lon * e + cos_lat * cos_lon * z,
      sin_lat * sin_lon * s + cos_lon * e + cos_lat * sin_lon * z,
      -cos_lat * s + sin_lat * z});
}

/// Every Walker shell of the Gen2 catalog: Gen1's four plus the Gen2 shell.
inline std::vector<constellation::WalkerShell> starlink_gen2_shells() {
  std::vector<constellation::WalkerShell> shells =
      constellation::starlink_gen1_shells();
  shells.push_back(constellation::starlink_gen2_shell());
  return shells;
}

/// Sun elevation above a ground site's horizon [deg]; negative at night.
inline double sun_elevation_deg(const geo::Geodetic& site,
                                const time::JulianDate& jd) {
  const geo::EcefKm sun_ecef =
      geo::teme_to_ecef(sun::sun_position_teme(jd), jd);
  return geo::look_angles(site, sun_ecef).elevation_deg;
}

/// Only the usable candidates `terminal` sees at `jd` (what the scheduler
/// may pick from).
inline std::vector<ground::Candidate> usable_candidates(
    const ground::Terminal& terminal, const constellation::Catalog& catalog,
    const time::JulianDate& jd) {
  std::vector<ground::Candidate> all = terminal.candidates(catalog, jd);
  std::erase_if(all, [](const ground::Candidate& c) { return !c.usable(); });
  return all;
}

/// `terminal`'s sky at the middle of `slot`: what InferencePipeline::run
/// allocates from and hands the identifier.
inline std::vector<ground::Candidate> slot_sky(const core::Scenario& sc,
                                               const ground::Terminal& terminal,
                                               time::SlotIndex slot) {
  return terminal.candidates(
      sc.catalog(),
      time::JulianDate::from_unix_seconds(sc.grid().slot_mid(slot)));
}

/// True if every set pixel of `a` is also set in `b`: a word-wise
/// `a & ~b` test over the frames' one-bit-per-pixel storage.
inline bool subset_of(const obsmap::ObstructionMap& a,
                      const obsmap::ObstructionMap& b) {
  for (std::size_t i = 0; i < obsmap::ObstructionMap::kNumWords; ++i) {
    if ((a.word(i) & ~b.word(i)) != 0) return false;
  }
  return true;
}

/// The paper's four vantage-point terminals, in paper order.
inline std::vector<ground::Terminal> paper_terminals() {
  std::vector<ground::Terminal> out;
  for (const ground::Site s : {ground::Site::kIowa, ground::Site::kNewYork,
                               ground::Site::kMadrid,
                               ground::Site::kWashington}) {
    out.emplace_back(ground::paper_terminal_config(s));
  }
  return out;
}

}  // namespace starlab::testing
