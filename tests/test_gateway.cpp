#include "ground/gateway.hpp"

#include <gtest/gtest.h>

#include "geo/frames.hpp"
#include "scheduler/global_scheduler.hpp"
#include "test_helpers.hpp"

namespace starlab::ground {
namespace {

using starlab::testing::small_scenario;
using starlab::testing::usable_candidates;

/// ECEF point at `alt_km` directly above a geodetic site.
geo::EcefKm above(const geo::Geodetic& site, double alt_km) {
  geo::Geodetic raised = site;
  raised.height_km += alt_km;
  return geo::geodetic_to_ecef(raised);
}

TEST(Gateway, SatelliteOverGatewayIsConnected) {
  const GatewayNetwork net = GatewayNetwork::paper_region_network();
  const geo::EcefKm sat = above(net.gateways().front().site, 550.0);
  EXPECT_TRUE(net.has_gateway(sat));
}

TEST(Gateway, SatelliteOverPacificIsNot) {
  const GatewayNetwork net = GatewayNetwork::paper_region_network();
  // Mid-Pacific, no CONUS/EU gateway within ~1000 km.
  const geo::EcefKm sat = above({0.0, -160.0, 0.0}, 550.0);
  EXPECT_FALSE(net.has_gateway(sat));
}

TEST(Gateway, DenseNetworkCoversPaperTerminals) {
  // Nearly every satellite usable from the four vantage points must see a
  // gateway — the condition under which the paper could ignore the bent-pipe
  // constraint.
  const GatewayNetwork net = GatewayNetwork::paper_region_network();
  const auto jd = time::JulianDate::from_unix_seconds(
      small_scenario().epoch_unix());
  std::size_t connected = 0, total = 0;
  for (std::size_t t = 0; t < 4; ++t) {
    for (const Candidate& c : usable_candidates(
             small_scenario().terminal(t), small_scenario().catalog(), jd)) {
      ++total;
      const geo::EcefKm ecef = geo::teme_to_ecef(c.sky.position_teme_km, jd);
      if (net.has_gateway(ecef)) ++connected;
    }
  }
  ASSERT_GT(total, 10u);
  EXPECT_GT(static_cast<double>(connected) / total, 0.95);
}

TEST(Gateway, SparseNetworkBindsSometimes) {
  const GatewayNetwork net = GatewayNetwork::sparse_network();
  const auto jd = time::JulianDate::from_unix_seconds(
      small_scenario().epoch_unix());
  std::size_t connected = 0, total = 0;
  for (std::size_t t = 0; t < 4; ++t) {
    for (const Candidate& c : usable_candidates(
             small_scenario().terminal(t), small_scenario().catalog(), jd)) {
      ++total;
      const geo::EcefKm ecef = geo::teme_to_ecef(c.sky.position_teme_km, jd);
      if (net.has_gateway(ecef)) ++connected;
    }
  }
  ASSERT_GT(total, 10u);
  EXPECT_LT(connected, total);  // at least one candidate loses its gateway
}

TEST(Gateway, SchedulerRespectsConstraint) {
  // Attach a sparse network to a fresh scheduler and verify every pick has
  // gateway connectivity.
  const GatewayNetwork net = GatewayNetwork::sparse_network();
  scheduler::GlobalScheduler sched(small_scenario().catalog());
  sched.set_gateway_network(&net);

  int checked = 0;
  for (time::SlotIndex s = small_scenario().first_slot();
       s < small_scenario().first_slot() + 60 && checked < 20; ++s) {
    const auto alloc = sched.allocate(small_scenario().terminal(0), s);
    if (!alloc.has_value()) continue;
    ++checked;
    const auto jd = time::JulianDate::from_unix_seconds(
        small_scenario().grid().slot_mid(s));
    const auto& catalog = small_scenario().catalog();
    const auto idx = catalog.index_of(alloc->norad_id);
    ASSERT_TRUE(idx.has_value());
    const geo::EcefKm ecef = catalog.ephemeris(*idx).position_ecef(jd);
    EXPECT_TRUE(net.has_gateway(ecef)) << "slot " << s;
  }
  EXPECT_GT(checked, 5);
}

TEST(Gateway, ConstraintChangesSomeDecisions) {
  const GatewayNetwork net = GatewayNetwork::sparse_network();
  scheduler::GlobalScheduler with(small_scenario().catalog());
  with.set_gateway_network(&net);
  const scheduler::GlobalScheduler& without =
      small_scenario().global_scheduler();

  int differs = 0, both = 0;
  for (time::SlotIndex s = small_scenario().first_slot();
       s < small_scenario().first_slot() + 120; ++s) {
    const auto a = with.allocate(small_scenario().terminal(0), s);
    const auto b = without.allocate(small_scenario().terminal(0), s);
    if (a && b) {
      ++both;
      if (a->norad_id != b->norad_id) ++differs;
    }
  }
  ASSERT_GT(both, 50);
  EXPECT_GT(differs, 0);
}

TEST(Gateway, NullNetworkIsNoConstraint) {
  scheduler::GlobalScheduler sched(small_scenario().catalog());
  sched.set_gateway_network(nullptr);
  const auto a = sched.allocate(small_scenario().terminal(0),
                                small_scenario().first_slot());
  const auto b = small_scenario().global_scheduler().allocate(
      small_scenario().terminal(0), small_scenario().first_slot());
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->norad_id, b->norad_id);
}

}  // namespace
}  // namespace starlab::ground
