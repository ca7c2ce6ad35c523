#include "match/trajectory.hpp"

#include <algorithm>
#include <cmath>

namespace starlab::match {

Point2 sky_to_plane(const obsmap::SkyPoint& sky,
                    const obsmap::MapGeometry& g) {
  // Same polar mapping the map itself uses, kept in continuous coordinates.
  const double r = (g.max_elevation - sky.elevation()) /
                   (g.max_elevation - g.min_elevation) * g.radius_px;
  const double az = sky.azimuth_deg * M_PI / 180.0;
  return {g.center_x + r * std::sin(az), g.center_y - r * std::cos(az)};
}

std::vector<Point2> chain_pixels(const std::vector<obsmap::Pixel>& pixels) {
  std::vector<Point2> pts;
  pts.reserve(pixels.size());
  for (const obsmap::Pixel& p : pixels) {
    pts.push_back({static_cast<double>(p.x), static_cast<double>(p.y)});
  }
  if (pts.size() <= 2) return pts;

  // Endpoint: the pixel farthest from the blob centroid (an end of the
  // streak, not its middle).
  Point2 centroid{0.0, 0.0};
  for (const Point2& p : pts) {
    centroid.x += p.x;
    centroid.y += p.y;
  }
  centroid.x /= static_cast<double>(pts.size());
  centroid.y /= static_cast<double>(pts.size());

  std::size_t start = 0;
  double best = -1.0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const double d = local_cost(pts[i], centroid);
    if (d > best) {
      best = d;
      start = i;
    }
  }

  // Greedy nearest-neighbour chain.
  std::vector<Point2> ordered;
  ordered.reserve(pts.size());
  std::vector<bool> used(pts.size(), false);
  std::size_t current = start;
  used[current] = true;
  ordered.push_back(pts[current]);
  for (std::size_t step = 1; step < pts.size(); ++step) {
    double nearest = 1e300;
    std::size_t next = pts.size();
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (used[i]) continue;
      const double d = local_cost(pts[current], pts[i]);
      if (d < nearest) {
        nearest = d;
        next = i;
      }
    }
    if (next == pts.size()) break;
    used[next] = true;
    ordered.push_back(pts[next]);
    current = next;
  }
  return ordered;
}

std::vector<Point2> extract_trajectory(const obsmap::ObstructionMap& isolated,
                                       const obsmap::MapGeometry& geometry) {
  std::vector<obsmap::Pixel> inside;
  for (const obsmap::Pixel& p : isolated.set_pixels()) {
    if (geometry.sky_of(p).has_value()) inside.push_back(p);
  }
  return chain_pixels(inside);
}

}  // namespace starlab::match
