#include "geo/topocentric.hpp"

#include <gtest/gtest.h>

#include "geo/angles.hpp"
#include "geo/wgs.hpp"
#include "test_helpers.hpp"

namespace starlab::geo {
namespace {

using starlab::testing::angular_difference_deg;
using starlab::testing::direction_from_look;

const Geodetic kObserver{40.0, -90.0, 0.0};

/// A target `range_km` away in the direction (az, el) from the observer.
EcefKm target_at(const Geodetic& obs, double az, double el, double range_km) {
  const EcefKm obs_ecef = geodetic_to_ecef(obs);
  return obs_ecef + direction_from_look(obs, Deg(az), Deg(el)) * range_km;
}

TEST(Topocentric, ZenithTarget) {
  const EcefKm target = target_at(kObserver, 0.0, 90.0, 550.0);
  const LookAngles la = look_angles(kObserver, target);
  EXPECT_NEAR(la.elevation_deg, 90.0, 1e-6);
  EXPECT_NEAR(la.range_km, 550.0, 1e-6);
}

TEST(Topocentric, RangeIsEuclideanDistance) {
  const EcefKm obs_ecef = geodetic_to_ecef(kObserver);
  const EcefKm target = target_at(kObserver, 123.0, 34.0, 987.0);
  const LookAngles la = look_angles(kObserver, target);
  EXPECT_NEAR(la.range_km, (target - obs_ecef).norm(), 1e-9);
}

// Round-trip: direction_from_look and look_angles must invert each other at
// arbitrary azimuth/elevation.
struct AzEl {
  double az, el;
};
class LookRoundTrip : public ::testing::TestWithParam<AzEl> {};

TEST_P(LookRoundTrip, AzElRecovered) {
  const auto [az, el] = GetParam();
  const EcefKm target = target_at(kObserver, az, el, 800.0);
  const LookAngles la = look_angles(kObserver, target);
  EXPECT_NEAR(la.elevation_deg, el, 1e-6);
  if (el < 89.9) {  // azimuth is undefined at zenith
    EXPECT_NEAR(angular_difference_deg(la.azimuth_deg, az), 0.0, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SkySweep, LookRoundTrip,
    ::testing::Values(AzEl{0.0, 25.0}, AzEl{45.0, 30.0}, AzEl{90.0, 45.0},
                      AzEl{135.0, 60.0}, AzEl{180.0, 75.0}, AzEl{225.0, 25.1},
                      AzEl{270.0, 50.0}, AzEl{315.0, 89.0}, AzEl{359.5, 40.0},
                      AzEl{10.0, 5.0}, AzEl{200.0, -5.0}));

TEST(Topocentric, NorthTargetHasZeroAzimuth) {
  // A point slightly north at the same height must appear near azimuth 0.
  const Geodetic north{kObserver.latitude_deg + 1.0, kObserver.longitude_deg,
                       100.0};
  const LookAngles la = look_angles(kObserver, geodetic_to_ecef(north));
  EXPECT_LT(angular_difference_deg(la.azimuth_deg, 0.0), 1.0);
}

TEST(Topocentric, EastTargetHasNinetyAzimuth) {
  const Geodetic east{kObserver.latitude_deg, kObserver.longitude_deg + 1.0,
                      100.0};
  const LookAngles la = look_angles(kObserver, geodetic_to_ecef(east));
  EXPECT_LT(angular_difference_deg(la.azimuth_deg, 90.0), 1.0);
}

TEST(Topocentric, BelowHorizonIsNegativeElevation) {
  // The Earth's centre is at elevation -90.
  const LookAngles la = look_angles(kObserver, {0.0, 0.0, 0.0});
  EXPECT_NEAR(la.elevation_deg, -90.0, 0.2);
}

double sep(double az1, double el1, double az2, double el2) {
  return sky_separation(Deg(az1), Deg(el1), Deg(az2), Deg(el2)).value();
}

TEST(Topocentric, SkySeparationBasics) {
  EXPECT_NEAR(sep(0.0, 45.0, 0.0, 45.0), 0.0, 1e-9);
  EXPECT_NEAR(sep(0.0, 90.0, 0.0, 25.0), 65.0, 1e-9);
  // Two points on the horizon 90 deg of azimuth apart.
  EXPECT_NEAR(sep(0.0, 0.0, 90.0, 0.0), 90.0, 1e-9);
  // At the zenith azimuth is irrelevant.
  EXPECT_NEAR(sep(0.0, 90.0, 180.0, 90.0), 0.0, 1e-6);
}

TEST(Topocentric, SkySeparationTriangleInequality) {
  const double a[2] = {30.0, 40.0};
  const double b[2] = {80.0, 55.0};
  const double c[2] = {200.0, 70.0};
  const double ab = sep(a[0], a[1], b[0], b[1]);
  const double bc = sep(b[0], b[1], c[0], c[1]);
  const double ac = sep(a[0], a[1], c[0], c[1]);
  EXPECT_LE(ac, ab + bc + 1e-9);
}

TEST(Topocentric, DirectionFromLookIsUnit) {
  for (double az = 0.0; az < 360.0; az += 60.0) {
    EXPECT_NEAR(direction_from_look(kObserver, Deg(az), Deg(42.0)).norm(), 1.0, 1e-12);
  }
}

}  // namespace
}  // namespace starlab::geo
