#include "geo/vec3.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include "test_helpers.hpp"

namespace starlab::geo {
namespace {

using starlab::testing::cross;

TEST(Vec3, Arithmetic) {
  const Vec3 a{1.0, 2.0, 3.0};
  const Vec3 b{4.0, -5.0, 6.0};
  const Vec3 sum = a + b;
  EXPECT_DOUBLE_EQ(sum.x, 5.0);
  EXPECT_DOUBLE_EQ(sum.y, -3.0);
  EXPECT_DOUBLE_EQ(sum.z, 9.0);

  const Vec3 diff = a - b;
  EXPECT_DOUBLE_EQ(diff.x, -3.0);
  EXPECT_DOUBLE_EQ(diff.y, 7.0);
  EXPECT_DOUBLE_EQ(diff.z, -3.0);

  const Vec3 scaled = a * 2.0;
  EXPECT_DOUBLE_EQ(scaled.y, 4.0);
  const Vec3 scaled2 = 2.0 * a;
  EXPECT_DOUBLE_EQ(scaled2.z, 6.0);
  const Vec3 divided = a / 2.0;
  EXPECT_DOUBLE_EQ(divided.x, 0.5);
  const Vec3 neg = -a;
  EXPECT_DOUBLE_EQ(neg.x, -1.0);
}

TEST(Vec3, CompoundAssignment) {
  Vec3 v{1.0, 1.0, 1.0};
  v += {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(v.z, 4.0);
  v -= {1.0, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(v.x, 1.0);
}

TEST(Vec3, DotAndNorm) {
  const Vec3 a{3.0, 4.0, 0.0};
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
  EXPECT_DOUBLE_EQ(a.norm_sq(), 25.0);
  EXPECT_DOUBLE_EQ(a.dot({1.0, 1.0, 7.0}), 7.0);
}

TEST(Vec3, CrossFollowsRightHandRule) {
  const Vec3 x{1.0, 0.0, 0.0};
  const Vec3 y{0.0, 1.0, 0.0};
  const Vec3 z = cross(x, y);
  EXPECT_DOUBLE_EQ(z.x, 0.0);
  EXPECT_DOUBLE_EQ(z.y, 0.0);
  EXPECT_DOUBLE_EQ(z.z, 1.0);
  // Anti-commutative.
  const Vec3 mz = cross(y, x);
  EXPECT_DOUBLE_EQ(mz.z, -1.0);
}

TEST(Vec3, CrossIsPerpendicular) {
  const Vec3 a{1.2, -3.4, 5.6};
  const Vec3 b{-7.8, 9.0, 1.2};
  const Vec3 c = cross(a, b);
  EXPECT_NEAR(c.dot(a), 0.0, 1e-12);
  EXPECT_NEAR(c.dot(b), 0.0, 1e-12);
}

TEST(Vec3, NormalizedHasUnitLength) {
  const Vec3 v{10.0, -20.0, 30.0};
  EXPECT_NEAR(v.normalized().norm(), 1.0, 1e-14);
}

TEST(Vec3, NormalizedZeroStaysZero) {
  const Vec3 v{0.0, 0.0, 0.0};
  const Vec3 n = v.normalized();
  EXPECT_DOUBLE_EQ(n.norm(), 0.0);
}

TEST(Vec3, AngleTo) {
  const Vec3 x{1.0, 0.0, 0.0};
  const Vec3 y{0.0, 2.0, 0.0};
  EXPECT_NEAR(x.angle_to(y), M_PI / 2.0, 1e-12);
  EXPECT_NEAR(x.angle_to(x * 5.0), 0.0, 1e-7);
  EXPECT_NEAR(x.angle_to(-x), M_PI, 1e-12);
}

TEST(Vec3, AngleToClampsRoundoff) {
  // Nearly parallel vectors must not produce NaN from acos(>1).
  const Vec3 a{1.0, 1e-9, 0.0};
  const Vec3 b{1.0, 0.0, 0.0};
  const double angle = a.angle_to(b);
  EXPECT_FALSE(std::isnan(angle));
  EXPECT_GE(angle, 0.0);
}

}  // namespace
}  // namespace starlab::geo
