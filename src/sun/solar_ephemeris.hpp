#pragma once

// Low-precision solar ephemeris (Astronomical Almanac), accurate to ~0.01 deg
// over 1950-2050 — two orders of magnitude tighter than needed to decide
// whether a satellite is sunlit (the paper computes this with Skyfield).

#include "geo/frame_vec.hpp"
#include "geo/geodetic.hpp"
#include "geo/vec3.hpp"
#include "time/julian_date.hpp"

namespace starlab::sun {

/// One astronomical unit [km].
inline constexpr double kAuKm = 149597870.7;

/// Solar radius [km].
inline constexpr double kSunRadiusKm = 696000.0;

/// Sun position [km] in the TEME/mean-equator frame at a UTC instant.
[[nodiscard]] geo::TemeKm sun_position_teme(const time::JulianDate& jd);

/// Unit vector toward the sun in the TEME frame.
[[nodiscard]] geo::TemeKm sun_direction_teme(const time::JulianDate& jd);

/// Local mean solar hour [0, 24) at a given longitude: UTC hour shifted by
/// longitude/15. This is the "local time" feature (t_l) of the paper's model.
[[nodiscard]] double local_solar_hour(double longitude_deg, double unix_sec);

}  // namespace starlab::sun
