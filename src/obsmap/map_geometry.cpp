#include "obsmap/map_geometry.hpp"

#include <cmath>
#include <limits>
#include <numbers>
#include <string>

#include "check/contracts.hpp"
#include "geo/angles.hpp"

namespace starlab::obsmap {

std::optional<Pixel> MapGeometry::pixel_of(const SkyPoint& p) const {
  STARLAB_EXPECT(
      radius_px > 0.0 && max_elevation > min_elevation,
      "degenerate map geometry: radius " + std::to_string(radius_px) +
          ", elevation span [" + std::to_string(min_elevation.value()) + ", " +
          std::to_string(max_elevation.value()) + "]");
  if (p.elevation() < min_elevation || p.elevation() > max_elevation) {
    return std::nullopt;
  }
  // Radius: 0 at zenith, radius_px at the rim elevation.
  const double r = (max_elevation - p.elevation()) /
                   (max_elevation - min_elevation) * radius_px;
  const double az = geo::to_rad(p.azimuth()).value();
  // North (az 0) points up the image (-y); azimuth grows clockwise (+x east).
  const double x = center_x + r * std::sin(az);
  const double y = center_y - r * std::cos(az);
  return Pixel{static_cast<int>(std::lround(x)), static_cast<int>(std::lround(y))};
}

std::optional<SkyPoint> MapGeometry::sky_of(const Pixel& px) const {
  const double dx = px.x - center_x;
  const double dy = px.y - center_y;
  const double r = std::hypot(dx, dy);
  if (r > radius_px + 0.5) return std::nullopt;

  SkyPoint p;
  p.elevation_deg = (max_elevation - std::min(r, radius_px) / radius_px *
                                         (max_elevation - min_elevation))
                        .value();
  // atan2(east, north) == clockwise angle from north.
  p.azimuth_deg = geo::wrap_360(geo::rad_to_deg(std::atan2(dx, -dy)));
  return p;
}

double MapGeometry::max_scale(geo::Deg lowest) const {
  constexpr double kNoBound = std::numeric_limits<double>::infinity();
  if (max_elevation != geo::Deg(90.0)) return kNoBound;
  const double zenith = geo::to_rad(max_elevation - lowest).value();
  if (!(zenith < std::numbers::pi)) return kNoBound;
  const double radial =
      radius_px / geo::to_rad(max_elevation - min_elevation).value();
  return zenith > 0.0 ? radial * zenith / std::sin(zenith) : radial;
}

}  // namespace starlab::obsmap
