#pragma once

// The polar-plot geometry of Starlink's gRPC obstruction maps, as recovered
// by the paper (§4.1): a 123x123 image whose contained polar plot is centred
// at pixel (61, 61) with radius 45 px; the radius axis is the angle of
// elevation (25 deg at the rim, 90 deg at the centre) and the polar angle is
// the azimuth (0 == north == straight up, increasing clockwise).

#include <optional>

#include "geo/units.hpp"

namespace starlab::obsmap {

/// A pixel coordinate (x == column, y == row; row 0 is the top of the image,
/// i.e. north).
struct Pixel {
  int x = 0;
  int y = 0;

  bool operator==(const Pixel&) const = default;
};

/// A sky direction in the map's terms. Raw fields stay for plain-data use;
/// unit-safe callers construct via the typed factory and read the accessors.
struct SkyPoint {
  double azimuth_deg = 0.0;
  double elevation_deg = 0.0;

  [[nodiscard]] static constexpr SkyPoint from(geo::Deg azimuth,
                                               geo::Deg elevation) {
    return SkyPoint{azimuth.value(), elevation.value()};
  }
  [[nodiscard]] constexpr geo::Deg azimuth() const {
    return geo::Deg(azimuth_deg);
  }
  [[nodiscard]] constexpr geo::Deg elevation() const {
    return geo::Deg(elevation_deg);
  }
};

struct MapGeometry {
  double center_x = 61.0;
  double center_y = 61.0;
  double radius_px = 45.0;
  geo::Deg min_elevation{25.0};  ///< elevation at the rim
  geo::Deg max_elevation{90.0};  ///< elevation at the centre

  /// Pixel for a sky direction; nullopt when the elevation is below the rim.
  [[nodiscard]] std::optional<Pixel> pixel_of(const SkyPoint& p) const;

  /// Unit-safe overload.
  [[nodiscard]] std::optional<Pixel> pixel_of(geo::Deg azimuth,
                                              geo::Deg elevation) const {
    return pixel_of(SkyPoint::from(azimuth, elevation));
  }

  /// Sky direction of a pixel centre; nullopt when the pixel lies outside
  /// the polar plot.
  [[nodiscard]] std::optional<SkyPoint> sky_of(const Pixel& px) const;

  /// The largest plane displacement [px] per radian of sky arc that the
  /// polar mapping makes among sky directions at or above `lowest`. The
  /// radial scale is radius_px per radian of the elevation span; the
  /// tangential one grows with zenith angle z by z / sin(z). +infinity when
  /// the plot is not centred on the zenith (the tangential scale diverges
  /// there) or `lowest` reaches the nadir.
  [[nodiscard]] double max_scale(geo::Deg lowest) const;

  bool operator==(const MapGeometry&) const = default;
};

}  // namespace starlab::obsmap
