#include "core/scenario.hpp"

#include <gtest/gtest.h>

#include "ground/gateway.hpp"
#include "test_helpers.hpp"

namespace starlab::core {
namespace {

using starlab::testing::small_scenario;

TEST(Scenario, DefaultConfigHasPaperTerminals) {
  const ScenarioConfig cfg = Scenario::default_config();
  ASSERT_EQ(cfg.terminals.size(), 4u);
  EXPECT_EQ(cfg.terminals[0].name, "Iowa");
  EXPECT_EQ(cfg.terminals[1].name, "New York");
  EXPECT_EQ(cfg.terminals[2].name, "Madrid");
  EXPECT_EQ(cfg.terminals[3].name, "Washington");
}

TEST(Scenario, GridIsPaperGrid) {
  EXPECT_DOUBLE_EQ(small_scenario().grid().period_seconds(), 15.0);
  EXPECT_DOUBLE_EQ(small_scenario().grid().slot_start(0), 12.0);
}

TEST(Scenario, FirstSlotStartsAtOrAfterEpoch) {
  const double epoch = small_scenario().epoch_unix();
  const auto slot = small_scenario().first_slot();
  EXPECT_GE(small_scenario().grid().slot_start(slot), epoch);
  EXPECT_LT(small_scenario().grid().slot_start(slot), epoch + 15.0);
}

TEST(Scenario, ScaleControlsConstellationSize) {
  const ScenarioConfig full = Scenario::default_config(1.0);
  const ScenarioConfig half = Scenario::default_config(0.5);
  EXPECT_DOUBLE_EQ(full.constellation.scale, 1.0);
  EXPECT_DOUBLE_EQ(half.constellation.scale, 0.5);
}

TEST(Scenario, ComponentsWiredTogether) {
  EXPECT_EQ(&small_scenario().global_scheduler().catalog(),
            &small_scenario().catalog());
  EXPECT_EQ(small_scenario().terminals().size(), 4u);
}

TEST(Scenario, CustomTerminalList) {
  ScenarioConfig cfg = Scenario::default_config(0.1);
  cfg.terminals.resize(1);
  const Scenario s(std::move(cfg));
  EXPECT_EQ(s.terminals().size(), 1u);
  EXPECT_EQ(s.terminal(0).name(), "Iowa");
}

TEST(Scenario, GatewayNetworkAttachable) {
  // The bent-pipe constraint attaches to a scheduler over the scenario's
  // catalog; allocation still works for the paper terminals (the dense
  // network rarely binds there).
  const Scenario s(Scenario::default_config(0.125));
  const ground::GatewayNetwork net =
      ground::GatewayNetwork::paper_region_network();
  scheduler::GlobalScheduler sched(s.catalog());
  sched.set_gateway_network(&net);
  EXPECT_TRUE(sched.allocate(s.terminal(0), s.first_slot()).has_value());
}

}  // namespace
}  // namespace starlab::core
