#include "obsmap/painter.hpp"

#include <cmath>
#include <cstdlib>

namespace starlab::obsmap {

namespace {

/// Bresenham line between two pixels (inclusive).
void draw_line(ObstructionMap& frame, Pixel a, Pixel b) {
  const int dx = std::abs(b.x - a.x);
  const int dy = -std::abs(b.y - a.y);
  const int sx = a.x < b.x ? 1 : -1;
  const int sy = a.y < b.y ? 1 : -1;
  int err = dx + dy;
  Pixel p = a;
  while (true) {
    frame.set(p);
    if (p == b) break;
    const int e2 = 2 * err;
    if (e2 >= dy) {
      err += dy;
      p.x += sx;
    }
    if (e2 <= dx) {
      err += dx;
      p.y += sy;
    }
  }
}

}  // namespace

PathSampler::PathSampler(const constellation::Catalog& catalog,
                         const geo::Geodetic& site, double t_begin,
                         double t_end)
    : catalog_(catalog), observer_(site) {
  for (double t = t_begin; t < t_end; t += kPathSampleSec) {
    const time::JulianDate jd = time::JulianDate::from_unix_seconds(t);
    instants_.push_back({jd, geo::teme_to_ecef_rotation(jd)});
  }
}

geo::LookAngles PathSampler::look(std::size_t catalog_index,
                                  std::size_t k) const {
  const Instant& at = instants_[k];
  const geo::TemeKm teme(
      catalog_.ephemeris(catalog_index).state_teme(at.jd).position_km);
  return geo::look_angles(observer_, at.teme_to_ecef.apply(teme));
}

void TrajectoryPainter::paint(const constellation::Catalog& catalog,
                              std::size_t catalog_index,
                              const ground::Terminal& terminal, double t_begin,
                              double t_end, ObstructionMap& frame) const {
  const PathSampler sampler(catalog, terminal.site(), t_begin, t_end);
  std::optional<Pixel> prev;
  for (std::size_t k = 0; k < sampler.size(); ++k) {
    const geo::LookAngles look = sampler.look(catalog_index, k);
    const std::optional<Pixel> px =
        geometry_.pixel_of(look.azimuth(), look.elevation());
    if (px.has_value()) {
      if (prev.has_value()) {
        draw_line(frame, *prev, *px);
      } else {
        frame.set(*px);
      }
    }
    prev = px;
  }
}

ObstructionMap MapRecorder::record_slot(
    const std::optional<scheduler::Allocation>& allocation) {
  if (allocation.has_value()) {
    painter_.paint(catalog_, allocation->catalog_index, terminal_,
                   grid_.slot_start(allocation->slot),
                   grid_.slot_end(allocation->slot), accumulated_);
  }
  return accumulated_;
}

}  // namespace starlab::obsmap
