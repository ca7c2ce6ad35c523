#include "core/scenario.hpp"

namespace starlab::core {

ScenarioConfig Scenario::default_config(double constellation_scale) {
  ScenarioConfig cfg;
  cfg.constellation.scale = constellation_scale;
  for (const ground::Site s :
       {ground::Site::kIowa, ground::Site::kNewYork, ground::Site::kMadrid,
        ground::Site::kWashington}) {
    cfg.terminals.push_back(ground::paper_terminal_config(s));
  }
  return cfg;
}

Scenario::Scenario(ScenarioConfig config)
    : config_(std::move(config)),
      catalog_(std::make_unique<constellation::Catalog>(
          constellation::synthesize(config_.constellation))),
      mac_(config_.seed ^ 0x11ULL) {
  terminals_.reserve(config_.terminals.size());
  for (const ground::TerminalConfig& tc : config_.terminals) {
    terminals_.emplace_back(tc);
  }
  global_ = std::make_unique<scheduler::GlobalScheduler>(
      *catalog_, config_.weights, config_.grid, config_.seed);
}

}  // namespace starlab::core
