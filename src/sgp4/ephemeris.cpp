#include "sgp4/ephemeris.hpp"

#include <cmath>
#include <limits>

#include "geo/frames.hpp"
#include "geo/wgs.hpp"

namespace starlab::sgp4 {

namespace {

/// How far max_sky_rate moves the mean-element perigee down and apogee up.
/// SGP4's osculating radius strays from them by its short-periodic terms
/// (~10 km at Starlink altitudes) and drifts down with drag after epoch.
constexpr double kRadiusMarginKm = 50.0;

}  // namespace

geo::EcefKm Ephemeris::position_ecef(const time::JulianDate& jd) const {
  return geo::teme_to_ecef(geo::TemeKm(state_teme(jd).position_km), jd);
}

geo::Geodetic Ephemeris::subpoint(const time::JulianDate& jd) const {
  return geo::ecef_to_geodetic(position_ecef(jd));
}

double Ephemeris::max_sky_rate(const geo::EcefKm& observer) const {
  const CommonConstants& c = propagator_.constants();
  const geo::EarthModel& earth = geo::kWgs72;
  const geo::Km semi_major(c.ao * earth.radius_km);
  const geo::Km perigee =
      semi_major * (1.0 - c.ecco) - geo::Km(kRadiusMarginKm);
  const geo::Km apogee = semi_major * (1.0 + c.ecco) + geo::Km(kRadiusMarginKm);
  const geo::Km min_range = perigee - geo::Km(observer.norm());
  if (!(min_range > geo::Km(0.0))) {
    return std::numeric_limits<double>::infinity();
  }
  // Speed relative to the Earth-fixed frame the observer's sky turns with:
  // the orbital speed at perigee (vis-viva, its maximum; perigee < semi-major
  // axis keeps the root real) plus the frame's rotation speed at apogee.
  const double speed =
      std::sqrt(earth.mu_km3_s2 *
                (2.0 / perigee.value() - 1.0 / semi_major.value())) +
      geo::kEarthRotationRadPerSec * apogee.value();
  return speed / min_range.value();
}

geo::LookAngles Ephemeris::look_from(const geo::Geodetic& observer,
                                     const time::JulianDate& jd) const {
  return geo::look_angles(observer, position_ecef(jd));
}

}  // namespace starlab::sgp4
