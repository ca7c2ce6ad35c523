#include "ground/sites.hpp"

#include <gtest/gtest.h>
#include "test_helpers.hpp"

namespace starlab::ground {
namespace {

using starlab::testing::paper_terminals;

TEST(Sites, NamesMatchFigureLegends) {
  EXPECT_STREQ(site_name(Site::kIowa), "Iowa");
  EXPECT_STREQ(site_name(Site::kNewYork), "New York");
  EXPECT_STREQ(site_name(Site::kMadrid), "Madrid");
  EXPECT_STREQ(site_name(Site::kWashington), "Washington");
}

TEST(Sites, FourTerminalsInOrder) {
  const auto terminals = paper_terminals();
  ASSERT_EQ(terminals.size(), 4u);
  EXPECT_EQ(terminals[0].name(), "Iowa");
  EXPECT_EQ(terminals[1].name(), "New York");
  EXPECT_EQ(terminals[2].name(), "Madrid");
  EXPECT_EQ(terminals[3].name(), "Washington");
}

TEST(Sites, AllAboveFortyNorth) {
  // The paper notes all four sit at latitudes above ~40 degN, which is what
  // puts the GSO exclusion zone in play.
  for (const Terminal& t : paper_terminals()) {
    EXPECT_GT(t.site().latitude_deg, 40.0) << t.name();
    EXPECT_LT(t.site().latitude_deg, 50.0) << t.name();
  }
}

TEST(Sites, PopIsNearItsTerminal) {
  // Each PoP serves its region: within ~500 km of the dish.
  for (const Terminal& t : paper_terminals()) {
    const geo::EcefKm dish = geo::geodetic_to_ecef(t.site());
    const geo::EcefKm pop = geo::geodetic_to_ecef(t.pop_site());
    EXPECT_LT((dish - pop).norm(), 500.0) << t.name();
  }
}

TEST(Sites, OnlyIthacaIsObstructed) {
  const auto terminals = paper_terminals();
  EXPECT_GT(terminals[1].mask().obstructed_fraction(geo::Deg(25.0)), 0.05);
  EXPECT_DOUBLE_EQ(terminals[0].mask().obstructed_fraction(geo::Deg(25.0)), 0.0);
  EXPECT_DOUBLE_EQ(terminals[2].mask().obstructed_fraction(geo::Deg(25.0)), 0.0);
  EXPECT_DOUBLE_EQ(terminals[3].mask().obstructed_fraction(geo::Deg(25.0)), 0.0);
}

TEST(Sites, IthacaObstructionIsNorthWest) {
  const auto cfg = paper_terminal_config(Site::kNewYork);
  EXPECT_GT(cfg.mask.horizon_at(geo::Deg(315.0)).value(), 40.0);
  EXPECT_DOUBLE_EQ(cfg.mask.horizon_at(geo::Deg(135.0)).value(), 0.0);
}

TEST(Sites, StandardFieldOfViewParameters) {
  for (const Terminal& t : paper_terminals()) {
    EXPECT_DOUBLE_EQ(t.min_elevation().value(), 25.0) << t.name();
  }
}

}  // namespace
}  // namespace starlab::ground
