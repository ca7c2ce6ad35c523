#pragma once

// Angle helpers shared across the library. All public starlab APIs take and
// return degrees (matching the paper's figures); internal math uses radians.

#include <cmath>
#include <numbers>

namespace starlab::geo {

inline constexpr double kPi = std::numbers::pi;
inline constexpr double kTwoPi = 2.0 * std::numbers::pi;
inline constexpr double kDegPerRad = 180.0 / std::numbers::pi;
inline constexpr double kRadPerDeg = std::numbers::pi / 180.0;

[[nodiscard]] constexpr double deg_to_rad(double deg) { return deg * kRadPerDeg; }
[[nodiscard]] constexpr double rad_to_deg(double rad) { return rad * kDegPerRad; }

/// Wrap an angle in radians to [0, 2*pi).
[[nodiscard]] inline double wrap_two_pi(double rad) {
  double w = std::fmod(rad, kTwoPi);
  if (w < 0.0) w += kTwoPi;
  return w;
}

/// Wrap an angle in degrees to [0, 360).
[[nodiscard]] inline double wrap_360(double deg) {
  double w = std::fmod(deg, 360.0);
  if (w < 0.0) w += 360.0;
  // A negative epsilon rounds to exactly 360.0 in the addition above; the
  // half-open interval makes that the same direction as 0.
  if (w >= 360.0) w = 0.0;
  return w;
}

/// Wrap an angle in degrees to (-180, 180].
[[nodiscard]] inline double wrap_180(double deg) {
  double w = wrap_360(deg);
  if (w > 180.0) w -= 360.0;
  return w;
}

}  // namespace starlab::geo
