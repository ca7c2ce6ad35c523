#include "rf/link_budget.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace starlab::rf {
namespace {

TEST(LinkBudget, FsplKnownValue) {
  // Textbook: 1 km at 1 GHz -> 92.45 dB.
  EXPECT_NEAR(fspl_db(geo::Km(1.0), 1.0), 92.45, 1e-9);
  // 550 km at 12 GHz: 92.45 + 20log10(550) + 20log10(12) ~= 168.9 dB.
  EXPECT_NEAR(fspl_db(geo::Km(550.0), 12.0), 168.84, 0.1);
}

TEST(LinkBudget, FsplInverseSquareLaw) {
  // Doubling the distance costs exactly 6.02 dB.
  const double d1 = fspl_db(geo::Km(600.0), 12.0);
  const double d2 = fspl_db(geo::Km(1200.0), 12.0);
  EXPECT_NEAR(d2 - d1, 20.0 * std::log10(2.0), 1e-9);
}

TEST(LinkBudget, ReceivedPowerDecreasesWithRange) {
  const LinkParams link = ku_user_downlink();
  EXPECT_GT(received_power_dbw(link, geo::Km(550.0)), received_power_dbw(link, geo::Km(1100.0)));
}

TEST(LinkBudget, CnIsPositiveAtLeoRanges) {
  // A Starlink-like downlink closes with healthy margin at zenith and still
  // closes at the 25 deg slant range.
  const LinkParams link = ku_user_downlink();
  EXPECT_GT(cn_db(link, geo::Km(550.0)), 5.0);
  EXPECT_GT(cn_db(link, geo::Km(1200.0)), 0.0);
}

TEST(LinkBudget, CapacityDecreasesWithRange) {
  const LinkParams link = ku_user_downlink();
  const double near = shannon_capacity_mbps(link, geo::Km(550.0));
  const double far = shannon_capacity_mbps(link, geo::Km(1200.0));
  EXPECT_GT(near, far);
  // Both in a broadband-plausible window.
  EXPECT_GT(far, 50.0);
  EXPECT_LT(near, 5000.0);
}

TEST(LinkBudget, CapacityScalesWithEfficiency) {
  const LinkParams link = ku_user_downlink();
  EXPECT_NEAR(shannon_capacity_mbps(link, geo::Km(700.0), 0.5),
              shannon_capacity_mbps(link, geo::Km(700.0), 1.0) * 0.5, 1e-9);
}

TEST(LinkBudget, RequiredEirpGrowsWithRange) {
  // The paper's energy argument: holding the same C/N at 2x the range needs
  // +6 dB of transmit power, the C/N that doubling the range costs.
  const LinkParams link = ku_user_downlink();
  const double near = cn_db(link, geo::Km(550.0));
  const double far = cn_db(link, geo::Km(1100.0));
  EXPECT_NEAR(near - far, 20.0 * std::log10(2.0), 1e-9);
}

TEST(LinkBudget, RequiredEirpConsistentWithCn) {
  // C/N moves dB for dB with EIRP, so raising EIRP by the C/N shortfall
  // achieves exactly the target C/N.
  LinkParams link = ku_user_downlink();
  const double target = 12.5;
  link.eirp_dbw += target - cn_db(link, geo::Km(800.0));
  EXPECT_NEAR(cn_db(link, geo::Km(800.0)), target, 1e-9);
}

TEST(LinkBudget, WiderBandMoreCapacityLowerCn) {
  LinkParams narrow = ku_user_downlink();
  LinkParams wide = ku_user_downlink();
  wide.bandwidth_mhz = 2.0 * narrow.bandwidth_mhz;
  EXPECT_LT(cn_db(wide, geo::Km(700.0)), cn_db(narrow, geo::Km(700.0)));
  EXPECT_GT(shannon_capacity_mbps(wide, geo::Km(700.0)),
            shannon_capacity_mbps(narrow, geo::Km(700.0)));
}

}  // namespace
}  // namespace starlab::rf
