#include "match/trajectory.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace starlab::match {
namespace {

TEST(Trajectory, SkyToPlaneMatchesGeometryMapping) {
  const obsmap::MapGeometry g;
  // North rim: straight up from the centre.
  const Point2 p = sky_to_plane({0.0, 25.0}, g);
  EXPECT_NEAR(p.x, 61.0, 1e-9);
  EXPECT_NEAR(p.y, 61.0 - 45.0, 1e-9);
  // Zenith: at the centre.
  const Point2 z = sky_to_plane({123.0, 90.0}, g);
  EXPECT_NEAR(z.x, 61.0, 1e-9);
  EXPECT_NEAR(z.y, 61.0, 1e-9);
  // East at mid elevation.
  const Point2 e = sky_to_plane({90.0, 57.5}, g);
  EXPECT_NEAR(e.x, 61.0 + 22.5, 1e-9);
  EXPECT_NEAR(e.y, 61.0, 1e-9);
}

TEST(Trajectory, ChainEmptyAndTiny) {
  EXPECT_TRUE(chain_pixels({}).empty());
  const auto one = chain_pixels({{5, 5}});
  ASSERT_EQ(one.size(), 1u);
  EXPECT_DOUBLE_EQ(one[0].x, 5.0);
  const auto two = chain_pixels({{5, 5}, {9, 9}});
  EXPECT_EQ(two.size(), 2u);
}

TEST(Trajectory, ChainOrdersAScrambledLine) {
  // A horizontal streak given in scrambled order must come back monotone.
  std::vector<obsmap::Pixel> scrambled = {{14, 50}, {10, 50}, {13, 50},
                                          {11, 50}, {15, 50}, {12, 50}};
  const auto chained = chain_pixels(scrambled);
  ASSERT_EQ(chained.size(), 6u);
  const bool increasing = chained.front().x < chained.back().x;
  for (std::size_t i = 1; i < chained.size(); ++i) {
    if (increasing) {
      EXPECT_GT(chained[i].x, chained[i - 1].x);
    } else {
      EXPECT_LT(chained[i].x, chained[i - 1].x);
    }
  }
}

TEST(Trajectory, ChainStartsAtAnEndpoint) {
  std::vector<obsmap::Pixel> diag;
  for (int i = 0; i < 12; ++i) diag.push_back({20 + i, 30 + i});
  std::swap(diag[0], diag[6]);  // scramble a bit
  const auto chained = chain_pixels(diag);
  const bool starts_low = chained.front().x == 20.0;
  const bool starts_high = chained.front().x == 31.0;
  EXPECT_TRUE(starts_low || starts_high);
}

TEST(Trajectory, ChainTotalLengthNearOptimal) {
  // For a curved streak, nearest-neighbour chaining must not jump around:
  // the chained path length should be close to the pixel count (unit steps).
  std::vector<obsmap::Pixel> arc;
  for (int i = 0; i < 30; ++i) {
    const double t = i / 29.0 * M_PI / 2.0;
    arc.push_back({static_cast<int>(40 + 30 * std::cos(t)),
                   static_cast<int>(40 + 30 * std::sin(t))});
  }
  const auto chained = chain_pixels(arc);
  double length = 0.0;
  for (std::size_t i = 1; i < chained.size(); ++i) {
    length += std::sqrt(local_cost(chained[i], chained[i - 1]));
  }
  // Optimal is ~arc length (~47); a bad chain would double back.
  EXPECT_LT(length, 47.0 * 1.5);
}

TEST(Trajectory, ExtractDropsPixelsOutsidePlot) {
  obsmap::ObstructionMap frame;
  frame.set(61, 20);  // inside (41 px from centre)
  frame.set(0, 0);    // far outside the polar plot
  const auto traj = extract_trajectory(frame, obsmap::MapGeometry{});
  EXPECT_EQ(traj.size(), 1u);
}

}  // namespace
}  // namespace starlab::match
