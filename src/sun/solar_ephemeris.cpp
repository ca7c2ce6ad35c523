#include "sun/solar_ephemeris.hpp"

#include <cmath>

#include "geo/angles.hpp"
#include "time/utc_time.hpp"

namespace starlab::sun {

using geo::deg_to_rad;

geo::TemeKm sun_position_teme(const time::JulianDate& jd) {
  // Astronomical Almanac low-precision formulae (also Vallado Alg. 29).
  const double n = (jd.day_part() - time::kJ2000Jd) + jd.frac_part();

  const double mean_lon = geo::wrap_360(280.460 + 0.9856474 * n);   // deg
  const double mean_anom = deg_to_rad(geo::wrap_360(357.528 + 0.9856003 * n));

  const double ecl_lon = deg_to_rad(
      mean_lon + 1.915 * std::sin(mean_anom) + 0.020 * std::sin(2.0 * mean_anom));
  const double obliquity = deg_to_rad(23.439 - 4.0e-7 * n);
  const double r_au =
      1.00014 - 0.01671 * std::cos(mean_anom) - 0.00014 * std::cos(2.0 * mean_anom);

  const double r_km = r_au * kAuKm;
  return {r_km * std::cos(ecl_lon),
          r_km * std::cos(obliquity) * std::sin(ecl_lon),
          r_km * std::sin(obliquity) * std::sin(ecl_lon)};
}

geo::TemeKm sun_direction_teme(const time::JulianDate& jd) {
  return sun_position_teme(jd).normalized();
}

double local_solar_hour(double longitude_deg, double unix_sec) {
  const time::UtcTime utc = time::UtcTime::from_unix_seconds(unix_sec);
  const double utc_hours = utc.hour + utc.minute / 60.0 + utc.second / 3600.0;
  double local = std::fmod(utc_hours + longitude_deg / 15.0, 24.0);
  if (local < 0.0) local += 24.0;
  return local;
}

}  // namespace starlab::sun
