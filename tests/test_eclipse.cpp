#include "sun/eclipse.hpp"

#include <gtest/gtest.h>

#include "geo/wgs.hpp"
#include "sun/solar_ephemeris.hpp"
#include "time/julian_date.hpp"
#include "test_helpers.hpp"

namespace starlab::sun {
namespace {

using starlab::testing::cross;

using starlab::time::JulianDate;

const JulianDate kJd = JulianDate::from_calendar(2023, 6, 1, 0, 0, 0.0);
const geo::TemeKm kPole(geo::Vec3{0.0, 0.0, 1.0});

geo::TemeKm leo_point_toward_sun(double altitude_km) {
  return sun_direction_teme(kJd) * (geo::kWgs84.radius_km + altitude_km);
}

TEST(Eclipse, SunSideSatelliteIsSunlit) {
  const geo::TemeKm sat = leo_point_toward_sun(550.0);
  EXPECT_TRUE(is_sunlit_cylindrical(sat, kJd));
  EXPECT_EQ(classify_illumination(sat, kJd), Illumination::kSunlit);
  EXPECT_TRUE(is_sunlit(sat, kJd));
}

TEST(Eclipse, AntiSunLeoSatelliteIsDark) {
  // Directly behind the Earth at 550 km: deep in the umbra.
  const geo::TemeKm sat = -leo_point_toward_sun(550.0);
  EXPECT_FALSE(is_sunlit_cylindrical(sat, kJd));
  EXPECT_EQ(classify_illumination(sat, kJd), Illumination::kUmbra);
  EXPECT_FALSE(is_sunlit(sat, kJd));
}

TEST(Eclipse, AntiSunButFarOutEscapesShadowCylinder) {
  // At GSO distance behind the Earth but displaced sideways by 2 Earth
  // radii the satellite clears the shadow.
  const geo::TemeKm s_hat = sun_direction_teme(kJd);
  const geo::TemeKm side = cross(s_hat, kPole).normalized();
  const geo::TemeKm sat =
      -s_hat * 42164.0 + side * (2.0 * geo::kWgs84.radius_km);
  EXPECT_TRUE(is_sunlit_cylindrical(sat, kJd));
  EXPECT_EQ(classify_illumination(sat, kJd), Illumination::kSunlit);
}

TEST(Eclipse, TerminatorSatelliteIsSunlit) {
  // Perpendicular to the sun direction (over the terminator) a LEO
  // satellite still sees the sun.
  const geo::TemeKm s_hat = sun_direction_teme(kJd);
  const geo::TemeKm side = cross(s_hat, kPole).normalized();
  const geo::TemeKm sat = side * (geo::kWgs84.radius_km + 550.0);
  EXPECT_TRUE(is_sunlit_cylindrical(sat, kJd));
  EXPECT_NE(classify_illumination(sat, kJd), Illumination::kUmbra);
}

TEST(Eclipse, PenumbraExistsAtShadowEdge) {
  // Scan across the shadow edge at LEO distance behind the Earth; some
  // offset must classify as penumbra (the cone edge is soft).
  const geo::TemeKm s_hat = sun_direction_teme(kJd);
  const geo::TemeKm side = cross(s_hat, kPole).normalized();
  bool saw_penumbra = false;
  for (double off = 0.9; off <= 1.1; off += 0.001) {
    const geo::TemeKm sat = -s_hat * (geo::kWgs84.radius_km + 550.0) +
                          side * (geo::kWgs84.radius_km * off);
    if (classify_illumination(sat, kJd) == Illumination::kPenumbra) {
      saw_penumbra = true;
      break;
    }
  }
  EXPECT_TRUE(saw_penumbra);
}

TEST(Eclipse, ConicalAndCylindricalAgreeAwayFromEdge) {
  const geo::TemeKm s_hat = sun_direction_teme(kJd);
  const geo::TemeKm side = cross(s_hat, kPole).normalized();
  // Deep shadow and clear sunlight cases.
  const geo::TemeKm dark = -s_hat * (geo::kWgs84.radius_km + 550.0);
  const geo::TemeKm lit = -s_hat * (geo::kWgs84.radius_km + 550.0) +
                        side * (3.0 * geo::kWgs84.radius_km);
  EXPECT_EQ(is_sunlit_cylindrical(dark, kJd), is_sunlit(dark, kJd));
  EXPECT_EQ(is_sunlit_cylindrical(lit, kJd), is_sunlit(lit, kJd));
}

}  // namespace
}  // namespace starlab::sun
