#pragma once

// Equirectangular ASCII world canvas for ground tracks, gateway networks and
// terminal fleets. No basemap — just a lat/lon grid with plotted markers —
// which is enough to eyeball constellation coverage and gateway placement.

#include <string>
#include <vector>

#include "geo/units.hpp"

namespace starlab::viz {

class WorldMap {
 public:
  /// `width` columns cover longitude [-180, 180); `height` rows cover
  /// latitude [+90, -90] top-down.
  explicit WorldMap(int width = 90, int height = 30);

  void plot(geo::Deg latitude, geo::Deg longitude, char symbol);

  /// Render with a simple frame and equator/meridian rules.
  [[nodiscard]] std::string render() const;

  /// Character at a cell (row 0 == +90 lat edge); for tests.
  [[nodiscard]] char at(int row, int col) const {
    return grid_[static_cast<std::size_t>(row)][static_cast<std::size_t>(col)];
  }

 private:
  int width_;
  int height_;
  std::vector<std::string> grid_;
};

}  // namespace starlab::viz
