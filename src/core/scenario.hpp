#pragma once

// A Scenario bundles everything one study needs: the synthesized
// constellation (as a propagation-ready catalog), the terminal fleet, the
// 15-second slot grid and the scheduler oracles. It is the single object
// examples and benches construct first.

#include <memory>
#include <vector>

#include "constellation/catalog.hpp"
#include "constellation/synthesizer.hpp"
#include "fault/fault_plan.hpp"
#include "ground/sites.hpp"
#include "ground/terminal.hpp"
#include "scheduler/global_scheduler.hpp"
#include "scheduler/mac_scheduler.hpp"
#include "time/slot_grid.hpp"
#include "time/utc_time.hpp"

namespace starlab::core {

struct ScenarioConfig {
  constellation::SynthesizerConfig constellation;
  scheduler::SchedulerWeights weights;
  time::SlotGrid grid{15.0, 12.0};
  std::uint64_t seed = 7;
  /// Terminals to instantiate; defaults to the paper's four vantage points.
  std::vector<ground::TerminalConfig> terminals;
  /// Fault injection applied by campaigns and pipelines run over this
  /// scenario (they can also override it per run). The default plan has
  /// every rate at 0, i.e. clean data.
  fault::FaultPlan faults;
};

class Scenario {
 public:
  /// The paper's setup: four vantage points, full Gen1-scale constellation.
  /// `constellation_scale` < 1 thins the catalog for fast tests.
  [[nodiscard]] static ScenarioConfig default_config(double constellation_scale = 1.0);

  explicit Scenario(ScenarioConfig config);

  /// Scenario with the paper's default setup.
  Scenario() : Scenario(default_config()) {}

  [[nodiscard]] const constellation::Catalog& catalog() const {
    return *catalog_;
  }
  [[nodiscard]] const std::vector<ground::Terminal>& terminals() const {
    return terminals_;
  }
  [[nodiscard]] const ground::Terminal& terminal(std::size_t i) const {
    return terminals_[i];
  }
  [[nodiscard]] const scheduler::GlobalScheduler& global_scheduler() const {
    return *global_;
  }
  [[nodiscard]] const scheduler::MacScheduler& mac_scheduler() const {
    return mac_;
  }
  [[nodiscard]] const time::SlotGrid& grid() const { return config_.grid; }
  [[nodiscard]] const fault::FaultPlan& fault_plan() const {
    return config_.faults;
  }

  /// The campaign's natural start time: the constellation's TLE epoch
  /// (propagation error grows with time-from-epoch, as it would with a
  /// freshly pulled CelesTrak file).
  [[nodiscard]] double epoch_unix() const {
    return config_.constellation.epoch.to_unix_seconds();
  }

  /// First slot at/after the TLE epoch.
  [[nodiscard]] time::SlotIndex first_slot() const {
    return config_.grid.slot_of(epoch_unix()) + 1;
  }

 private:
  ScenarioConfig config_;
  std::unique_ptr<constellation::Catalog> catalog_;
  std::vector<ground::Terminal> terminals_;
  std::unique_ptr<scheduler::GlobalScheduler> global_;
  scheduler::MacScheduler mac_;
};

}  // namespace starlab::core
