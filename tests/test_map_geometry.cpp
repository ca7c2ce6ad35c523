#include "obsmap/map_geometry.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "geo/angles.hpp"
#include "test_helpers.hpp"

namespace starlab::obsmap {
namespace {

using starlab::testing::angular_difference_deg;

const MapGeometry kGeom;  // published parameters

TEST(MapGeometry, ZenithMapsToCenter) {
  const auto px = kGeom.pixel_of({123.0, 90.0});
  ASSERT_TRUE(px.has_value());
  EXPECT_EQ(px->x, 61);
  EXPECT_EQ(px->y, 61);
}

TEST(MapGeometry, RimIsAtPlotRadius) {
  const auto px = kGeom.pixel_of({0.0, 25.0});  // north rim
  ASSERT_TRUE(px.has_value());
  EXPECT_EQ(px->x, 61);
  EXPECT_EQ(px->y, 61 - 45);
}

TEST(MapGeometry, CardinalDirections) {
  // North is up (-y), east right (+x), south down, west left.
  const auto north = kGeom.pixel_of({0.0, 30.0});
  const auto east = kGeom.pixel_of({90.0, 30.0});
  const auto south = kGeom.pixel_of({180.0, 30.0});
  const auto west = kGeom.pixel_of({270.0, 30.0});
  ASSERT_TRUE(north && east && south && west);
  EXPECT_LT(north->y, 61);
  EXPECT_EQ(north->x, 61);
  EXPECT_GT(east->x, 61);
  EXPECT_EQ(east->y, 61);
  EXPECT_GT(south->y, 61);
  EXPECT_EQ(south->x, 61);
  EXPECT_LT(west->x, 61);
  EXPECT_EQ(west->y, 61);
}

TEST(MapGeometry, BelowRimElevationRejected) {
  EXPECT_FALSE(kGeom.pixel_of({0.0, 24.9}).has_value());
  EXPECT_FALSE(kGeom.pixel_of({0.0, -10.0}).has_value());
  EXPECT_FALSE(kGeom.pixel_of({0.0, 90.1}).has_value());
}

TEST(MapGeometry, SkyOfOutsidePlotRejected) {
  EXPECT_FALSE(kGeom.sky_of({0, 0}).has_value());
  EXPECT_FALSE(kGeom.sky_of({61, 10}).has_value());  // 51 px from centre
  EXPECT_TRUE(kGeom.sky_of({61, 61}).has_value());
}

TEST(MapGeometry, SkyOfCenterIsZenith) {
  const auto sky = kGeom.sky_of({61, 61});
  ASSERT_TRUE(sky.has_value());
  EXPECT_NEAR(sky->elevation_deg, 90.0, 1e-9);
}

// Round-trip: sky -> pixel -> sky within pixel quantization (the plot is
// 45 px over 65 deg of elevation, ~1.44 deg/px; azimuth error grows toward
// the centre).
struct SkyCase {
  double az, el;
};
class MapGeometryRoundTrip : public ::testing::TestWithParam<SkyCase> {};

TEST_P(MapGeometryRoundTrip, PixelInverts) {
  const auto [az, el] = GetParam();
  const auto px = kGeom.pixel_of({az, el});
  ASSERT_TRUE(px.has_value());
  const auto sky = kGeom.sky_of(*px);
  ASSERT_TRUE(sky.has_value());
  EXPECT_NEAR(sky->elevation_deg, el, 1.5);
  // Azimuth quantization: one pixel subtends atan(1/r) of azimuth.
  const double r = (90.0 - el) / 65.0 * 45.0;
  const double az_tol = geo::rad_to_deg(std::atan2(1.0, std::max(r, 1.0))) + 1.0;
  EXPECT_LT(angular_difference_deg(sky->azimuth_deg, az), az_tol);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MapGeometryRoundTrip,
    ::testing::Values(SkyCase{0.0, 25.0}, SkyCase{45.0, 35.0},
                      SkyCase{90.0, 45.0}, SkyCase{135.0, 55.0},
                      SkyCase{180.0, 65.0}, SkyCase{225.0, 75.0},
                      SkyCase{270.0, 85.0}, SkyCase{315.0, 30.0},
                      SkyCase{359.0, 50.0}, SkyCase{10.0, 88.0}));

TEST(MapGeometry, AllPixelsOfPlotInvert) {
  // Every pixel inside the plot maps to a sky point with el in [25, 90].
  int inside = 0;
  for (int y = 0; y < 123; ++y) {
    for (int x = 0; x < 123; ++x) {
      const auto sky = kGeom.sky_of({x, y});
      if (!sky) continue;
      ++inside;
      EXPECT_GE(sky->elevation_deg, 24.9);
      EXPECT_LE(sky->elevation_deg, 90.0);
      EXPECT_GE(sky->azimuth_deg, 0.0);
      EXPECT_LT(sky->azimuth_deg, 360.0);
    }
  }
  // ~pi * 45.5^2 pixels.
  EXPECT_NEAR(inside, 6504, 120);
}

TEST(MapGeometry, RecoveredStyleGeometryAlsoInverts) {
  // A slightly off-centre recovered geometry must still round-trip.
  const MapGeometry g{60.5, 62.0, 44.5, geo::Deg(25.0), geo::Deg(90.0)};
  const auto px = g.pixel_of({200.0, 40.0});
  ASSERT_TRUE(px.has_value());
  const auto sky = g.sky_of(*px);
  ASSERT_TRUE(sky.has_value());
  EXPECT_NEAR(sky->elevation_deg, 40.0, 1.6);
}

}  // namespace
}  // namespace starlab::obsmap
