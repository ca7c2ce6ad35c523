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
  EXPECT_GT(received_power_dbw(geo::Km(550.0)),
            received_power_dbw(geo::Km(1100.0)));
}

TEST(LinkBudget, CnIsPositiveAtLeoRanges) {
  // A Starlink-like downlink closes with healthy margin at zenith and still
  // closes at the 25 deg slant range.
  EXPECT_GT(cn_db(geo::Km(550.0)), 5.0);
  EXPECT_GT(cn_db(geo::Km(1200.0)), 0.0);
}

TEST(LinkBudget, CapacityDecreasesWithRange) {
  const double near = shannon_capacity_mbps(geo::Km(550.0));
  const double far = shannon_capacity_mbps(geo::Km(1200.0));
  EXPECT_GT(near, far);
  // Both in a broadband-plausible window.
  EXPECT_GT(far, 50.0);
  EXPECT_LT(near, 5000.0);
}

TEST(LinkBudget, CapacityScalesWithEfficiency) {
  EXPECT_NEAR(shannon_capacity_mbps(geo::Km(700.0), 0.5),
              shannon_capacity_mbps(geo::Km(700.0), 1.0) * 0.5, 1e-9);
}

TEST(LinkBudget, RequiredEirpGrowsWithRange) {
  // The paper's energy argument: holding the same C/N at 2x the range needs
  // +6 dB of transmit power, the C/N that doubling the range costs.
  const double near = cn_db(geo::Km(550.0));
  const double far = cn_db(geo::Km(1100.0));
  EXPECT_NEAR(near - far, 20.0 * std::log10(2.0), 1e-9);
}

}  // namespace
}  // namespace starlab::rf
