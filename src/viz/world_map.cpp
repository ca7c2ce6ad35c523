#include "viz/world_map.hpp"

#include <algorithm>
#include <cmath>

#include "geo/angles.hpp"

namespace starlab::viz {

WorldMap::WorldMap(int width, int height)
    : width_(width),
      height_(height),
      grid_(static_cast<std::size_t>(height),
            std::string(static_cast<std::size_t>(width), ' ')) {
  // Faint equator and prime-meridian rules for orientation.
  const int eq = height_ / 2;
  for (int x = 0; x < width_; ++x) {
    grid_[static_cast<std::size_t>(eq)][static_cast<std::size_t>(x)] = '-';
  }
  const int pm = width_ / 2;
  for (int y = 0; y < height_; ++y) {
    char& c = grid_[static_cast<std::size_t>(y)][static_cast<std::size_t>(pm)];
    c = (y == eq) ? '+' : '|';
  }
}

void WorldMap::plot(geo::Deg latitude, geo::Deg longitude, char symbol) {
  const double lon = geo::wrap_180(longitude.value());
  const double lat = std::clamp(latitude.value(), -90.0, 90.0);
  int col = static_cast<int>((lon + 180.0) / 360.0 * width_);
  int row = static_cast<int>((90.0 - lat) / 180.0 * height_);
  col = std::clamp(col, 0, width_ - 1);
  row = std::clamp(row, 0, height_ - 1);
  grid_[static_cast<std::size_t>(row)][static_cast<std::size_t>(col)] = symbol;
}

std::string WorldMap::render() const {
  std::string out = "+" + std::string(static_cast<std::size_t>(width_), '-') + "+\n";
  for (const std::string& row : grid_) {
    out += "|" + row + "|\n";
  }
  out += "+" + std::string(static_cast<std::size_t>(width_), '-') + "+\n";
  return out;
}

}  // namespace starlab::viz
