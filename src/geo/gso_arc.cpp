#include "geo/gso_arc.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "check/contracts.hpp"
#include "geo/angles.hpp"
#include "geo/wgs.hpp"

namespace starlab::geo {

namespace {

/// Unit vector of a sky position in (north, east, up) axes, built from the
/// same radian values `sky_separation` takes its sines and cosines of.
Vec3 sky_direction(Deg azimuth, Deg elevation) {
  const double az = to_rad(azimuth).value();
  const double el = to_rad(elevation).value();
  const double cos_el = std::cos(el);
  return {cos_el * std::cos(az), cos_el * std::sin(az), std::sin(el)};
}

/// Half-width, in cosine units, of the band around cos(protection) in which
/// `excluded` defers to the exact `separation`. The dot product and the
/// law-of-cosines value differ by a few ulps of 1, and acos has slope at
/// least 1 in magnitude, so outside the band the sample's angle is more
/// than 1e-9 rad from the protection: far beyond the rounding of the degree
/// conversions, so the exact comparison must come out the same way.
constexpr double kBand = 1e-9;

/// Largest |angle| (degrees) the fast path accepts. Below it, rounding
/// `az1 - az2` inside `sky_separation` moves the cosine by far less than
/// kBand; beyond it (and for NaN) `excluded` uses the exact scan.
constexpr double kMaxFastAngle = 1e6;

}  // namespace

GsoArc::GsoArc(const Geodetic& site, Deg step, Deg min_elevation) {
  // A zero, negative or NaN step would never leave the loop below.
  const bool valid_step = std::isfinite(step.value()) && step.value() > 0.0;
  STARLAB_EXPECT(valid_step, "GsoArc step must be finite and positive, got " +
                                 std::to_string(step.value()));
  if (!valid_step) return;  // kLog mode: an empty arc rather than a hang
  // A geostationary satellite sits on the equatorial plane at radius
  // kGsoRadiusKm; in ECEF it is fixed, so the arc can be sampled once.
  const ObserverFrame observer(site);
  for (double lon = -180.0; lon < 180.0; lon += step.value()) {
    const double lon_rad = deg_to_rad(lon);
    const EcefKm gso_ecef{kGsoRadiusKm * std::cos(lon_rad),
                          kGsoRadiusKm * std::sin(lon_rad), 0.0};
    const LookAngles la = look_angles(observer, gso_ecef);
    if (la.elevation() >= min_elevation) {
      samples_.push_back(la);
      directions_.push_back(sky_direction(la.azimuth(), la.elevation()));
      max_elevation_ = std::max(max_elevation_, la.elevation());
    }
  }
}

STARLAB_HOTPATH Deg GsoArc::separation(Deg azimuth, Deg elevation) const {
  if (samples_.empty()) return Deg(1e9);
  Deg best(1e9);
  for (const LookAngles& s : samples_) {
    best = std::min(best, sky_separation(azimuth, elevation, s.azimuth(),
                                         s.elevation()));
  }
  return best;
}

STARLAB_HOTPATH bool GsoArc::excluded(Deg azimuth, Deg elevation,
                                      Deg protection) const {
  // acos is decreasing, so "some sample is closer than `protection`" is
  // "the largest dot product exceeds cos(protection)" on [0, 180] degrees.
  const bool fast = !directions_.empty() &&
                    std::fabs(azimuth.value()) <= kMaxFastAngle &&
                    std::fabs(elevation.value()) <= kMaxFastAngle &&
                    protection.value() >= 0.0 && protection.value() <= 180.0;
  if (fast) {
    const Vec3 u = sky_direction(azimuth, elevation);
    const double cp = std::cos(to_rad(protection).value());
    double best = -2.0;
    for (const Vec3& v : directions_) {
      const double d = u.dot(v);
      if (d > cp + kBand) return true;
      best = std::max(best, d);
    }
    if (best < cp - kBand) return false;
  }
  return separation(azimuth, elevation) < protection;
}

}  // namespace starlab::geo
