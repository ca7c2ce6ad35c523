#include "sun/eclipse.hpp"

#include <algorithm>
#include <cmath>

#include "geo/wgs.hpp"
#include "sun/solar_ephemeris.hpp"

namespace starlab::sun {

// starlint:allow(reachability): reference oracle that tests check is_sunlit by
bool is_sunlit_cylindrical(const geo::TemeKm& sat, const time::JulianDate& jd) {
  const geo::TemeKm s_hat = sun_direction_teme(jd);
  const double along = sat.dot(s_hat);
  if (along > 0.0) return true;  // on the sun side of the Earth
  const geo::TemeKm perp = sat - s_hat * along;
  return perp.norm() > geo::kWgs84.radius_km;
}

Illumination classify_illumination(const geo::TemeKm& sat,
                                   const time::JulianDate& jd) {
  return classify_illumination(sat, sun_position_teme(jd));
}

Illumination classify_illumination(const geo::TemeKm& sat,
                                   const geo::TemeKm& sun) {
  // Day-side fast path. With the Sun ~1.5e8 km away and the satellite in
  // LEO, the satellite->Sun direction deviates from the geocentric Sun
  // direction by < 0.003 deg, so sat.dot(sun) >= 0 puts the Sun/Earth
  // separation angle within 0.003 deg of >= 90 deg — far outside the
  // penumbra cone, whose half-angle ang_earth + ang_sun is at most ~68 deg
  // for any orbit above 300 km. The ~22 deg of slack makes this branch
  // decision-identical to the full classification below.
  if (sat.dot(sun) >= 0.0) return Illumination::kSunlit;

  // Night-side fast path: the penumbra's cross-section a distance d down
  // the anti-sun axis is a disc of radius < Re + d * tan(ang_sun), under
  // Re + 35 km for any LEO distance. A satellite whose distance from the
  // shadow axis clears Re + 150 km is therefore sunlit with >= 115 km to
  // spare — far beyond anything FP rounding in either formulation can
  // bridge. Costs a handful of multiplies and no trig.
  {
    const double along = sat.dot(sun);  // < 0 here
    const double perp_sq = sat.norm_sq() - along * along / sun.norm_sq();
    const double clear = geo::kWgs84.radius_km + 150.0;
    if (perp_sq > clear * clear) return Illumination::kSunlit;
  }

  const geo::TemeKm sat_to_sun = sun - sat;
  const geo::TemeKm sat_to_earth = -sat;

  const double dist_sun = sat_to_sun.norm();
  const double dist_earth = sat_to_earth.norm();

  // Apparent angular radii from the satellite.
  const double ang_sun = std::asin(std::min(1.0, kSunRadiusKm / dist_sun));
  const double ang_earth =
      std::asin(std::min(1.0, geo::kWgs84.radius_km / dist_earth));

  // Angular separation between the Sun's and the Earth's centres. Same
  // arithmetic as Vec3::angle_to, reusing the two norms computed above.
  const double denom = dist_sun * dist_earth;
  double cos_sep = denom <= 0.0 ? 1.0 : sat_to_sun.dot(sat_to_earth) / denom;
  cos_sep = std::clamp(cos_sep, -1.0, 1.0);
  const double sep = std::acos(cos_sep);

  if (sep >= ang_sun + ang_earth) return Illumination::kSunlit;
  if (sep <= ang_earth - ang_sun) return Illumination::kUmbra;
  return Illumination::kPenumbra;
}

}  // namespace starlab::sun
