#include "constellation/walker.hpp"

#include <cmath>

#include "geo/angles.hpp"
#include "geo/wgs.hpp"

namespace starlab::constellation {

double circular_mean_motion_rev_per_day(geo::Km altitude) {
  const double a = geo::kWgs72.radius_km + altitude.value();
  const double n_rad_s = std::sqrt(geo::kWgs72.mu_km3_s2 / (a * a * a));
  return n_rad_s * 86400.0 / geo::kTwoPi;
}

std::vector<WalkerElement> generate_walker(const WalkerShell& shell) {
  std::vector<WalkerElement> out;
  out.reserve(static_cast<std::size_t>(shell.total_satellites()));

  const double raan_step = 360.0 / shell.planes;
  const double slot_step = 360.0 / shell.sats_per_plane;
  // Walker phasing: adjacent planes are offset in mean anomaly by
  // F * 360 / T degrees.
  const double phase_step =
      static_cast<double>(shell.phasing) * 360.0 / shell.total_satellites();
  const double n = circular_mean_motion_rev_per_day(shell.altitude);

  for (int p = 0; p < shell.planes; ++p) {
    for (int s = 0; s < shell.sats_per_plane; ++s) {
      WalkerElement e;
      e.plane = p;
      e.slot = s;
      e.inclination = shell.inclination;
      e.raan = geo::wrap_360(shell.raan_offset + geo::Deg(p * raan_step));
      e.mean_anomaly = geo::Deg(geo::wrap_360(s * slot_step + p * phase_step));
      e.altitude = shell.altitude;
      e.mean_motion_rev_per_day = n;
      out.push_back(e);
    }
  }
  return out;
}

std::vector<WalkerShell> starlink_gen1_shells() {
  return {
      // inclination, altitude, planes, sats/plane, phasing, raan offset
      {geo::Deg(53.0), geo::Km(550.0), 72, 22, 17, geo::Deg(0.0)},
      {geo::Deg(53.2), geo::Km(540.0), 72, 22, 17, geo::Deg(2.5)},
      {geo::Deg(70.0), geo::Km(570.0), 36, 20, 11, geo::Deg(0.0)},
      {geo::Deg(97.6), geo::Km(560.0), 6, 58, 1, geo::Deg(0.0)},
  };
}

WalkerShell starlink_gen2_shell() {
  // Offset half a Gen1 plane spacing so the Gen2 planes interleave with the
  // 53 deg Gen1 shell instead of stacking on it.
  return {geo::Deg(53.0), geo::Km(525.0), 120, 45, 11, geo::Deg(1.5)};
}

}  // namespace starlab::constellation
