#include "geo/topocentric.hpp"

#include <cmath>
#include <string>

#include "check/contracts.hpp"
#include "check/hotpath.hpp"
#include "geo/angles.hpp"

namespace starlab::geo {

ObserverFrame::ObserverFrame(const Geodetic& observer)
    : ecef_km(geodetic_to_ecef(observer)) {
  const double lat = deg_to_rad(observer.latitude_deg);
  const double lon = deg_to_rad(observer.longitude_deg);
  sin_lat = std::sin(lat);
  cos_lat = std::cos(lat);
  sin_lon = std::sin(lon);
  cos_lon = std::cos(lon);
}

STARLAB_HOTPATH LookAngles look_angles(const ObserverFrame& obs,
                                       const EcefKm& target_ecef_km) {
  // Rotate the ECEF difference vector into the observer's SEZ frame.
  const Vec3 d = (target_ecef_km - obs.ecef_km).raw();
  const Vec3 sez{
      obs.sin_lat * obs.cos_lon * d.x + obs.sin_lat * obs.sin_lon * d.y -
          obs.cos_lat * d.z,
      -obs.sin_lon * d.x + obs.cos_lon * d.y,
      obs.cos_lat * obs.cos_lon * d.x + obs.cos_lat * obs.sin_lon * d.y +
          obs.sin_lat * d.z};

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

LookAngles look_angles(const Geodetic& observer, const EcefKm& target_ecef_km) {
  return look_angles(ObserverFrame(observer), target_ecef_km);
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
