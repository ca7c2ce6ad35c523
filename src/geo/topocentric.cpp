#include "geo/topocentric.hpp"

#include <cmath>
#include <string>

#include "check/contracts.hpp"
#include "check/hotpath.hpp"
#include "geo/angles.hpp"

namespace starlab::geo {

namespace {

/// Rotate an ECEF difference vector into the observer's SEZ (south-east-
/// zenith) frame.
Vec3 ecef_to_sez(const Geodetic& obs, const Vec3& d) {
  const double lat = deg_to_rad(obs.latitude_deg);
  const double lon = deg_to_rad(obs.longitude_deg);
  const double sin_lat = std::sin(lat), cos_lat = std::cos(lat);
  const double sin_lon = std::sin(lon), cos_lon = std::cos(lon);

  return {sin_lat * cos_lon * d.x + sin_lat * sin_lon * d.y - cos_lat * d.z,
          -sin_lon * d.x + cos_lon * d.y,
          cos_lat * cos_lon * d.x + cos_lat * sin_lon * d.y + sin_lat * d.z};
}

}  // namespace

STARLAB_HOTPATH LookAngles look_angles(const Geodetic& observer,
                                       const EcefKm& target_ecef_km) {
  const EcefKm obs_ecef = geodetic_to_ecef(observer);
  const Vec3 sez = ecef_to_sez(observer, (target_ecef_km - obs_ecef).raw());

  LookAngles out;
  out.range_km = sez.norm();
  if (out.range_km <= 0.0) return out;

  out.elevation_deg = rad_to_deg(std::asin(sez.z / out.range_km));
  // Azimuth measured clockwise from north: north == -S axis, east == +E axis.
  out.azimuth_deg = wrap_360(rad_to_deg(std::atan2(sez.y, -sez.x)));

  STARLAB_ENSURE(out.elevation_deg >= -90.0 && out.elevation_deg <= 90.0,
                 "elevation out of [-90, 90]: " +
                     std::to_string(out.elevation_deg));
  STARLAB_ENSURE(out.azimuth_deg >= 0.0 && out.azimuth_deg < 360.0,
                 "azimuth out of [0, 360): " + std::to_string(out.azimuth_deg));
  return out;
}

Deg sky_separation(Deg az1_in, Deg el1_in, Deg az2_in, Deg el2_in) {
  const double az1 = to_rad(az1_in).value(), el1 = to_rad(el1_in).value();
  const double az2 = to_rad(az2_in).value(), el2 = to_rad(el2_in).value();
  // Spherical law of cosines on the observer's sky sphere.
  double c = std::sin(el1) * std::sin(el2) +
             std::cos(el1) * std::cos(el2) * std::cos(az1 - az2);
  if (c > 1.0) c = 1.0;
  if (c < -1.0) c = -1.0;
  return to_deg(Rad(std::acos(c)));
}

}  // namespace starlab::geo
