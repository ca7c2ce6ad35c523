#include "sun/solar_ephemeris.hpp"

#include <gtest/gtest.h>

#include "geo/angles.hpp"
#include "time/julian_date.hpp"
#include "test_helpers.hpp"

namespace starlab::sun {
namespace {

using starlab::testing::sun_elevation_deg;
using starlab::time::JulianDate;

TEST(Solar, DistanceIsOneAu) {
  for (int month = 1; month <= 12; ++month) {
    const JulianDate jd = JulianDate::from_calendar(2023, month, 15, 0, 0, 0.0);
    const double r = sun_position_teme(jd).norm();
    EXPECT_GT(r, 0.98 * kAuKm) << "month " << month;
    EXPECT_LT(r, 1.02 * kAuKm) << "month " << month;
  }
}

TEST(Solar, PerihelionInJanuaryAphelionInJuly) {
  const double r_jan =
      sun_position_teme(JulianDate::from_calendar(2023, 1, 4, 0, 0, 0.0)).norm();
  const double r_jul =
      sun_position_teme(JulianDate::from_calendar(2023, 7, 4, 0, 0, 0.0)).norm();
  EXPECT_LT(r_jan, r_jul);
}

TEST(Solar, DeclinationAtSolsticesAndEquinoxes) {
  // Declination == asin(z / r); ~+23.4 deg at June solstice, ~0 at equinox.
  auto decl = [](const JulianDate& jd) {
    const geo::TemeKm s = sun_direction_teme(jd);
    return geo::rad_to_deg(std::asin(s.z()));
  };
  EXPECT_NEAR(decl(JulianDate::from_calendar(2023, 6, 21, 12, 0, 0.0)), 23.4, 0.3);
  EXPECT_NEAR(decl(JulianDate::from_calendar(2023, 12, 21, 12, 0, 0.0)), -23.4, 0.3);
  EXPECT_NEAR(decl(JulianDate::from_calendar(2023, 3, 20, 21, 0, 0.0)), 0.0, 0.5);
  EXPECT_NEAR(decl(JulianDate::from_calendar(2023, 9, 23, 7, 0, 0.0)), 0.0, 0.5);
}

TEST(Solar, SunElevationPeaksNearLocalNoon) {
  // Madrid (lon -3.7): solar noon near 12:15 UTC.
  const geo::Geodetic madrid{40.417, -3.704, 0.65};
  double best_el = -90.0;
  int best_hour = -1;
  for (int h = 0; h < 24; ++h) {
    const JulianDate jd = JulianDate::from_calendar(2023, 6, 1, h, 0, 0.0);
    const double el = sun_elevation_deg(madrid, jd);
    if (el > best_el) {
      best_el = el;
      best_hour = h;
    }
  }
  EXPECT_EQ(best_hour, 12);
  // Max solar elevation at 40.4 degN in early June is ~71 deg.
  EXPECT_NEAR(best_el, 71.0, 3.0);
}

TEST(Solar, NightIsNegativeElevation) {
  const geo::Geodetic madrid{40.417, -3.704, 0.65};
  const JulianDate midnight = JulianDate::from_calendar(2023, 6, 1, 0, 0, 0.0);
  EXPECT_LT(sun_elevation_deg(madrid, midnight), -10.0);
}

TEST(Solar, LocalSolarHourOffsetsByLongitude) {
  const double noon_utc =
      JulianDate::from_calendar(2023, 6, 1, 12, 0, 0.0).to_unix_seconds();
  EXPECT_NEAR(local_solar_hour(0.0, noon_utc), 12.0, 1e-9);
  EXPECT_NEAR(local_solar_hour(-90.0, noon_utc), 6.0, 1e-9);   // Iowa-ish
  EXPECT_NEAR(local_solar_hour(90.0, noon_utc), 18.0, 1e-9);
  EXPECT_NEAR(local_solar_hour(180.0, noon_utc), 0.0, 1e-9);
}

TEST(Solar, LocalSolarHourAlwaysInRange) {
  for (double lon = -180.0; lon <= 180.0; lon += 30.0) {
    for (double t = 1.68e9; t < 1.68e9 + 86400.0; t += 86400.0 / 7) {
      const double h = local_solar_hour(lon, t);
      EXPECT_GE(h, 0.0);
      EXPECT_LT(h, 24.0);
    }
  }
}

}  // namespace
}  // namespace starlab::sun
