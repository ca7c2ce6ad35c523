// Edge cases of the angle helpers and the look-angle geometry: the places
// where azimuth wraps through north, elevation saturates at the poles of
// the sky sphere, and the range degenerates to zero.

#include <gtest/gtest.h>

#include "geo/angles.hpp"
#include "geo/geodetic.hpp"
#include "geo/topocentric.hpp"
#include "geo/units.hpp"
#include "test_helpers.hpp"

namespace starlab::geo {
namespace {

using starlab::testing::angular_difference_deg;
using starlab::testing::direction_from_look;

const Geodetic kObserver{40.0, -90.0, 0.0};

EcefKm target_at(const Geodetic& obs, double az, double el, double range_km) {
  return geodetic_to_ecef(obs) +
         direction_from_look(obs, Deg(az), Deg(el)) * range_km;
}

// --- wrap_360 ------------------------------------------------------------

TEST(Wrap360, IdentityInsideRange) {
  EXPECT_DOUBLE_EQ(wrap_360(0.0), 0.0);
  EXPECT_DOUBLE_EQ(wrap_360(123.456), 123.456);
  EXPECT_DOUBLE_EQ(wrap_360(359.999), 359.999);
}

TEST(Wrap360, ExactMultiplesCollapseToZero) {
  EXPECT_DOUBLE_EQ(wrap_360(360.0), 0.0);
  EXPECT_DOUBLE_EQ(wrap_360(720.0), 0.0);
  EXPECT_DOUBLE_EQ(wrap_360(-360.0), 0.0);
  EXPECT_DOUBLE_EQ(wrap_360(-720.0), 0.0);
}

TEST(Wrap360, NegativesWrapIntoRange) {
  EXPECT_DOUBLE_EQ(wrap_360(-90.0), 270.0);
  EXPECT_DOUBLE_EQ(wrap_360(-450.0), 270.0);
  EXPECT_DOUBLE_EQ(wrap_360(-0.25), 359.75);
}

TEST(Wrap360, ResultAlwaysInHalfOpenInterval) {
  for (double deg = -1080.0; deg <= 1080.0; deg += 7.3) {
    const double w = wrap_360(deg);
    EXPECT_GE(w, 0.0) << deg;
    EXPECT_LT(w, 360.0) << deg;
  }
  // A tiny negative epsilon must land just below 360, never at 360 exactly.
  const double w = wrap_360(-1e-13);
  EXPECT_GE(w, 0.0);
  EXPECT_LT(w, 360.0);
}

TEST(Wrap360, AngleBetweenAcrossNorthIsShortArc) {
  EXPECT_NEAR(angular_difference_deg(359.0, 1.0), 2.0, 1e-9);
  EXPECT_NEAR(angular_difference_deg(1.0, 359.0), 2.0, 1e-9);
  EXPECT_NEAR(angular_difference_deg(180.0, 0.0), 180.0, 1e-9);
}

// --- look_angles edge cases ----------------------------------------------

TEST(LookAnglesEdges, AzimuthWrapsThroughNorth) {
  // Two targets straddling true north must land on either side of the
  // 0/360 seam, both inside [0, 360).
  const LookAngles east =
      look_angles(kObserver, target_at(kObserver, 0.5, 45.0, 800.0));
  const LookAngles west =
      look_angles(kObserver, target_at(kObserver, 359.5, 45.0, 800.0));
  EXPECT_NEAR(east.azimuth_deg, 0.5, 1e-6);
  EXPECT_NEAR(west.azimuth_deg, 359.5, 1e-6);
  EXPECT_LT(west.azimuth_deg, 360.0);
  EXPECT_NEAR(angular_difference_deg(east.azimuth_deg, west.azimuth_deg), 1.0,
              1e-6);
}

TEST(LookAnglesEdges, DueNorthAzimuthIsZeroNot360) {
  const LookAngles la =
      look_angles(kObserver, target_at(kObserver, 0.0, 30.0, 800.0));
  EXPECT_NEAR(la.azimuth_deg, 0.0, 1e-6);
  EXPECT_GE(la.azimuth_deg, 0.0);
}

TEST(LookAnglesEdges, ZenithElevationSaturatesAtPlus90) {
  const LookAngles la =
      look_angles(kObserver, target_at(kObserver, 0.0, 90.0, 550.0));
  EXPECT_NEAR(la.elevation_deg, 90.0, 1e-6);
  EXPECT_LE(la.elevation_deg, 90.0);
}

TEST(LookAnglesEdges, NadirElevationSaturatesAtMinus90) {
  const LookAngles la =
      look_angles(kObserver, target_at(kObserver, 0.0, -90.0, 2.0));
  EXPECT_NEAR(la.elevation_deg, -90.0, 1e-6);
  EXPECT_GE(la.elevation_deg, -90.0);
}

TEST(LookAnglesEdges, ZeroRangeCoincidenceIsDefined) {
  // Observer and target at the same point: no direction exists, so the
  // contract is an all-zero LookAngles instead of NaN from 0/0.
  const LookAngles la = look_angles(kObserver, geodetic_to_ecef(kObserver));
  EXPECT_DOUBLE_EQ(la.range_km, 0.0);
  EXPECT_DOUBLE_EQ(la.azimuth_deg, 0.0);
  EXPECT_DOUBLE_EQ(la.elevation_deg, 0.0);
}

TEST(LookAnglesEdges, TypedAccessorsMirrorRawFields) {
  const LookAngles la =
      look_angles(kObserver, target_at(kObserver, 123.0, 34.0, 900.0));
  EXPECT_DOUBLE_EQ(la.azimuth().value(), la.azimuth_deg);
  EXPECT_DOUBLE_EQ(la.elevation().value(), la.elevation_deg);
  EXPECT_DOUBLE_EQ(la.range().value(), la.range_km);
}

}  // namespace
}  // namespace starlab::geo
