#include "geo/angles.hpp"

#include <gtest/gtest.h>
#include "test_helpers.hpp"

namespace starlab::geo {
namespace {

using starlab::testing::angular_difference_deg;

TEST(Angles, DegRadRoundTrip) {
  for (double d = -720.0; d <= 720.0; d += 36.5) {
    EXPECT_NEAR(rad_to_deg(deg_to_rad(d)), d, 1e-12);
  }
}

TEST(Angles, Wrap360) {
  EXPECT_DOUBLE_EQ(wrap_360(0.0), 0.0);
  EXPECT_DOUBLE_EQ(wrap_360(360.0), 0.0);
  EXPECT_DOUBLE_EQ(wrap_360(-1.0), 359.0);
  EXPECT_DOUBLE_EQ(wrap_360(725.0), 5.0);
  EXPECT_DOUBLE_EQ(wrap_360(-725.0), 355.0);
}

TEST(Angles, Wrap180) {
  EXPECT_DOUBLE_EQ(wrap_180(0.0), 0.0);
  EXPECT_DOUBLE_EQ(wrap_180(180.0), 180.0);
  EXPECT_DOUBLE_EQ(wrap_180(181.0), -179.0);
  EXPECT_DOUBLE_EQ(wrap_180(-181.0), 179.0);
  EXPECT_DOUBLE_EQ(wrap_180(540.0), 180.0);
}

TEST(Angles, WrapTwoPi) {
  EXPECT_NEAR(wrap_two_pi(-0.1), kTwoPi - 0.1, 1e-12);
  EXPECT_NEAR(wrap_two_pi(kTwoPi + 0.1), 0.1, 1e-12);
  EXPECT_GE(wrap_two_pi(-12345.678), 0.0);
  EXPECT_LT(wrap_two_pi(12345.678), kTwoPi);
}

TEST(Angles, AngularDifference) {
  EXPECT_DOUBLE_EQ(angular_difference_deg(10.0, 350.0), 20.0);
  EXPECT_DOUBLE_EQ(angular_difference_deg(350.0, 10.0), 20.0);
  EXPECT_DOUBLE_EQ(angular_difference_deg(0.0, 180.0), 180.0);
  EXPECT_DOUBLE_EQ(angular_difference_deg(90.0, 90.0), 0.0);
}

TEST(Angles, AngularDifferenceIsSymmetricAndBounded) {
  for (double a = 0.0; a < 360.0; a += 47.0) {
    for (double b = 0.0; b < 360.0; b += 31.0) {
      const double d1 = angular_difference_deg(a, b);
      const double d2 = angular_difference_deg(b, a);
      EXPECT_DOUBLE_EQ(d1, d2);
      EXPECT_GE(d1, 0.0);
      EXPECT_LE(d1, 180.0);
    }
  }
}

}  // namespace
}  // namespace starlab::geo
