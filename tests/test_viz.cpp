#include <gtest/gtest.h>

#include <algorithm>

#include "viz/sky_plot.hpp"
#include "viz/world_map.hpp"

namespace starlab::viz {
namespace {

TEST(SkyPlot, ZenithMarkAtCenter) {
  const std::string art = render_sky({{0.0, 90.0, 'Z'}});
  // Centre of a radius-20 plot: row 20, col 40 of 81-wide rows (plus
  // newlines). Just assert the symbol exists and sits mid-plot.
  const auto pos = art.find('Z');
  ASSERT_NE(pos, std::string::npos);
  const auto line = pos / 82;  // 81 chars + newline
  EXPECT_NEAR(static_cast<double>(line), 20.0, 1.0);
}

TEST(SkyPlot, NorthMarkAboveCenterSouthBelow) {
  const std::string art =
      render_sky({{0.0, 40.0, 'n'}, {180.0, 40.0, 's'}});
  const auto n_line = art.find('n') / 82;
  const auto s_line = art.find('s') / 82;
  EXPECT_LT(n_line, 20u);
  EXPECT_GT(s_line, 20u);
}

TEST(SkyPlot, EastRightWestLeft) {
  const std::string art =
      render_sky({{90.0, 40.0, 'e'}, {270.0, 40.0, 'w'}});
  const auto e_col = art.find('e') % 82;
  const auto w_col = art.find('w') % 82;
  EXPECT_GT(e_col, 40u);
  EXPECT_LT(w_col, 40u);
}

TEST(SkyPlot, BelowRimDropped) {
  const std::string art = render_sky({{0.0, 10.0, 'X'}});
  EXPECT_EQ(art.find('X'), std::string::npos);
}

TEST(SkyPlot, CompassLabelsPresent) {
  const std::string art = render_sky({});
  EXPECT_NE(art.find('N'), std::string::npos);
  EXPECT_NE(art.find('S'), std::string::npos);
  EXPECT_NE(art.find('E'), std::string::npos);
  EXPECT_NE(art.find('W'), std::string::npos);
}

TEST(SkyPlot, LaterMarksWin) {
  const std::string art =
      render_sky({{45.0, 60.0, 'a'}, {45.0, 60.0, 'b'}});
  EXPECT_EQ(art.find('a'), std::string::npos);
  EXPECT_NE(art.find('b'), std::string::npos);
}

TEST(WorldMapTest, QuadrantPlacement) {
  WorldMap map(90, 30);
  map.plot(geo::Deg(45.0), geo::Deg(-90.0), 'A');   // NW quadrant
  map.plot(geo::Deg(-45.0), geo::Deg(90.0), 'B');   // SE quadrant
  bool found_a = false, found_b = false;
  for (int r = 0; r < 30; ++r) {
    for (int c = 0; c < 90; ++c) {
      if (map.at(r, c) == 'A') {
        EXPECT_LT(r, 15);
        EXPECT_LT(c, 45);
        found_a = true;
      }
      if (map.at(r, c) == 'B') {
        EXPECT_GT(r, 15);
        EXPECT_GT(c, 45);
        found_b = true;
      }
    }
  }
  EXPECT_TRUE(found_a);
  EXPECT_TRUE(found_b);
}

TEST(WorldMapTest, LongitudeWraps) {
  WorldMap map(90, 30);
  map.plot(geo::Deg(0.0), geo::Deg(190.0), 'X');  // == -170
  bool found = false;
  for (int r = 0; r < 30; ++r) {
    for (int c = 0; c < 10; ++c) {
      if (map.at(r, c) == 'X') found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(WorldMapTest, PolesClamped) {
  WorldMap map(90, 30);
  map.plot(geo::Deg(95.0), geo::Deg(0.0), 'P');
  map.plot(geo::Deg(-95.0), geo::Deg(0.0), 'Q');
  bool p_top = false, q_bottom = false;
  for (int c = 0; c < 90; ++c) {
    if (map.at(0, c) == 'P') p_top = true;
    if (map.at(30 - 1, c) == 'Q') q_bottom = true;
  }
  EXPECT_TRUE(p_top);
  EXPECT_TRUE(q_bottom);
}

TEST(WorldMapTest, RenderHasFrame) {
  WorldMap map(20, 8);
  const std::string art = map.render();
  EXPECT_EQ(art.rfind("+--------------------+\n", 0), 0u);
  // 8 content rows + 2 frame rows.
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 10);
}

}  // namespace
}  // namespace starlab::viz
