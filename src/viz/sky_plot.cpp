#include "viz/sky_plot.hpp"

#include <cmath>

#include "geo/angles.hpp"

namespace starlab::viz {

namespace {

constexpr int kRadiusChars = 20;           ///< plot radius in character cells
constexpr double kRimElevationDeg = 25.0;  ///< elevation at the rim

}  // namespace

std::string render_sky(const std::vector<SkyMark>& marks) {
  const int r = kRadiusChars;
  const int height = 2 * r + 1;
  // Terminal cells are ~2x taller than wide: double the horizontal scale so
  // the plot renders round.
  const int width = 4 * r + 1;
  std::vector<std::string> grid(static_cast<std::size_t>(height),
                                std::string(static_cast<std::size_t>(width), ' '));

  const double cx = 2.0 * r;
  const double cy = r;

  // Rim circle.
  for (double az = 0.0; az < 360.0; az += 2.0) {
    const double a = geo::deg_to_rad(az);
    const int x = static_cast<int>(std::lround(cx + 2.0 * r * std::sin(a)));
    const int y = static_cast<int>(std::lround(cy - r * std::cos(a)));
    if (y >= 0 && y < height && x >= 0 && x < width) {
      grid[static_cast<std::size_t>(y)][static_cast<std::size_t>(x)] = '.';
    }
  }

  // Marks.
  const double span = 90.0 - kRimElevationDeg;
  for (const SkyMark& m : marks) {
    if (m.elevation_deg < kRimElevationDeg) continue;
    const double rho = (90.0 - m.elevation_deg) / span;  // 0 centre, 1 rim
    const double a = geo::deg_to_rad(m.azimuth_deg);
    const int x = static_cast<int>(std::lround(cx + 2.0 * r * rho * std::sin(a)));
    const int y = static_cast<int>(std::lround(cy - r * rho * std::cos(a)));
    if (y >= 0 && y < height && x >= 0 && x < width) {
      grid[static_cast<std::size_t>(y)][static_cast<std::size_t>(x)] = m.symbol;
    }
  }

  grid[0][static_cast<std::size_t>(cx)] = 'N';
  grid[static_cast<std::size_t>(height - 1)][static_cast<std::size_t>(cx)] = 'S';
  grid[static_cast<std::size_t>(cy)][static_cast<std::size_t>(width - 1)] = 'E';
  grid[static_cast<std::size_t>(cy)][0] = 'W';

  std::string out;
  for (const std::string& row : grid) {
    out += row;
    out += '\n';
  }
  return out;
}

}  // namespace starlab::viz
