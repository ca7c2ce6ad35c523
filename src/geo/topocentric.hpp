#pragma once

// Topocentric look angles: where a satellite appears in an observer's sky.
// This is the geometry that obstruction maps, the field-of-view query and
// the scheduler-preference analyses (§5) are all expressed in.

#include "geo/frame_vec.hpp"
#include "geo/geodetic.hpp"
#include "geo/units.hpp"
#include "geo/vec3.hpp"

namespace starlab::geo {

/// A direction + distance in an observer's local sky. The raw `*_deg`/`*_km`
/// fields are kept for plain-data serialization; unit-safe consumers go
/// through the typed accessors.
struct LookAngles {
  double azimuth_deg = 0.0;    ///< clockwise from true north, [0, 360)
  double elevation_deg = 0.0;  ///< above the local horizon, [-90, 90]
  double range_km = 0.0;       ///< slant range observer -> target

  [[nodiscard]] constexpr Deg azimuth() const { return Deg(azimuth_deg); }
  [[nodiscard]] constexpr Deg elevation() const { return Deg(elevation_deg); }
  [[nodiscard]] constexpr Km range() const { return Km(range_km); }
};

/// An observer's Earth-fixed position and the sines/cosines of its SEZ
/// (south-east-zenith) basis: everything look_angles needs from the site,
/// evaluated once so a loop over many targets or instants does not redo the
/// geodetic -> ECEF conversion and the latitude/longitude trig.
struct ObserverFrame {
  EcefKm ecef_km;
  double sin_lat = 0.0, cos_lat = 1.0;
  double sin_lon = 0.0, cos_lon = 1.0;

  explicit ObserverFrame(const Geodetic& observer);
};

/// Look angles from `observer` to `target_ecef` [km]. The target must
/// already be Earth-fixed; a TEME position has to come through
/// geo::teme_to_ecef first (enforced at compile time).
[[nodiscard]] LookAngles look_angles(const ObserverFrame& observer,
                                     const EcefKm& target_ecef_km);

/// Geodetic overload: builds the ObserverFrame and delegates, so both
/// overloads run one arithmetic path and agree bit for bit.
[[nodiscard]] LookAngles look_angles(const Geodetic& observer,
                                     const EcefKm& target_ecef_km);

/// Angular separation between two sky directions (az/el pairs), treated as
/// points on the observer's celestial sphere.
[[nodiscard]] Deg sky_separation(Deg az1, Deg el1, Deg az2, Deg el2);

}  // namespace starlab::geo
