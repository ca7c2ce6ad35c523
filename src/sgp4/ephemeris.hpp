#pragma once

// Ephemeris: the glue between the TEME-frame SGP4 propagator and ground
// geometry. Higher layers (field-of-view queries, obstruction-map painting,
// the scheduler oracle) only ever talk to this interface.

#include "geo/frame_vec.hpp"
#include "geo/geodetic.hpp"
#include "geo/topocentric.hpp"
#include "geo/vec3.hpp"
#include "sgp4/sgp4.hpp"
#include "time/julian_date.hpp"

namespace starlab::sgp4 {

class Ephemeris {
 public:
  explicit Ephemeris(const tle::Tle& tle) : propagator_(tle) {}

  /// TEME state at a UTC instant.
  [[nodiscard]] StateVector state_teme(const time::JulianDate& jd) const {
    return propagator_.propagate_to(jd);
  }

  /// Earth-fixed position [km] at a UTC instant.
  [[nodiscard]] geo::EcefKm position_ecef(const time::JulianDate& jd) const;

  /// Geodetic sub-satellite point (and altitude) at a UTC instant.
  [[nodiscard]] geo::Geodetic subpoint(const time::JulianDate& jd) const;

  /// Look angles from a ground observer at a UTC instant.
  [[nodiscard]] geo::LookAngles look_from(const geo::Geodetic& observer,
                                          const time::JulianDate& jd) const;

  /// An upper bound [rad/s] on the angular rate at which this satellite can
  /// cross the sky of a ground observer at `observer`: its greatest speed
  /// relative to the Earth over its least possible range, both from the
  /// element set's perigee and apogee widened by a margin for SGP4's
  /// periodic terms and drag. +infinity when the perigee does not clear the
  /// observer.
  [[nodiscard]] double max_sky_rate(const geo::EcefKm& observer) const;

  [[nodiscard]] const Sgp4& propagator() const { return propagator_; }

 private:
  Sgp4 propagator_;
};

}  // namespace starlab::sgp4
