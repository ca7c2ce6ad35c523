#pragma once

// §4 end-to-end: the satellite-identification pipeline.
//
// Drives the dish-side map recorder slot by slot, XORs consecutive frames,
// matches the isolated trajectory against TLE-propagated candidates with
// DTW, and (for validation) compares the inference with the oracle's ground
// truth — the experiment behind the paper's ">99 % agreement over 500
// trials" claim. The terminal is reset every 10 minutes, exactly as the
// paper does, so trajectories stay XOR-separable.

#include <optional>
#include <vector>

#include "core/campaign.hpp"
#include "core/scenario.hpp"
#include "match/identifier.hpp"
#include "obsmap/map_params.hpp"
#include "obsmap/painter.hpp"

namespace starlab::core {

/// Outcome of identifying one slot.
struct SlotIdentification {
  time::SlotIndex slot = 0;
  std::optional<int> truth_norad;     ///< oracle allocation (if any)
  std::optional<int> inferred_norad;  ///< pipeline's answer (if any)
  double dtw = 0.0;                   ///< winning DTW distance
  int num_candidates = 0;
  std::size_t trajectory_pixels = 0;
  std::uint32_t quality = 0;  ///< quality:: flags for this slot's inputs
  double confidence = 0.0;    ///< identifier confidence in `inferred_norad`
  match::AbstainReason abstain = match::AbstainReason::kNone;
  /// The usable candidates at the slot midpoint, from the one sky query
  /// that allocation and identification used; append_inferred_rows records
  /// them as is.
  std::vector<ground::Candidate> sky;

  [[nodiscard]] bool abstained() const {
    return abstain != match::AbstainReason::kNone;
  }

  /// True when the pipeline names exactly the serving satellite.
  [[nodiscard]] bool correct() const {
    return truth_norad.has_value() && inferred_norad.has_value() &&
           *truth_norad == *inferred_norad;
  }
};

struct PipelineResult {
  std::vector<SlotIdentification> rows;
  /// Run summary: stage timings (when observability is on), slot counts,
  /// per-quality-flag and per-abstention-reason tallies, the fault plan in
  /// force. Filled by summarize(); the accessors below read only it.
  obs::RunReport report;

  /// Compute the report's slot summary from `rows`. run() calls it; a
  /// result built or edited by hand must call it before the accessors.
  void summarize();

  /// Fraction of decided slots (both truth and inference present) that are
  /// correct — the §4 validation metric.
  [[nodiscard]] double accuracy() const { return report.accuracy; }

  /// Number of slots where the pipeline produced an answer.
  [[nodiscard]] std::size_t decided() const { return report.decided; }

  /// Number of slots where the identifier explicitly declined to answer.
  [[nodiscard]] std::size_t abstained() const { return report.abstained; }

  /// Number of rows carrying one quality:: flag bit.
  [[nodiscard]] std::size_t flagged(std::uint32_t quality_bit) const;
};

struct PipelineConfig {
  double reset_interval_sec = 600.0;  ///< terminal reset cadence (10 min)
  match::IdentifierConfig identifier;
  /// Fault plan for this run; unset falls back to the scenario's plan. The
  /// pipeline applies the obstruction-map frame injector (dropped polls,
  /// bit flips) to what it observes — never to the dish's true state.
  std::optional<fault::FaultPlan> faults;
};

class InferencePipeline {
 public:
  InferencePipeline(const Scenario& scenario, PipelineConfig config = {});

  /// Run the identification pipeline for `terminal_index` over
  /// `duration_sec` starting at the scenario epoch. A run covers the whole
  /// window or throws; nothing interrupts it part-way.
  [[nodiscard]] PipelineResult run(std::size_t terminal_index,
                                   double duration_sec) const;

  /// The paper's actual §5 data path: a campaign whose "chosen" column comes
  /// from obstruction-map identification, not from the oracle. Slots where
  /// the pipeline is undecided carry no choice. With the validated >99 %
  /// identification accuracy, downstream statistics match the oracle-labeled
  /// campaign; this entry point exists so that claim is *checkable* (see
  /// Integration.Section4PipelineFeedsSection5Statistics and the campaign
  /// tests).
  [[nodiscard]] CampaignData run_inferred_campaign(double duration_sec) const;

  /// Convert one terminal's pipeline rows into campaign observations and
  /// append them to `data` — the per-terminal body of
  /// run_inferred_campaign, public so the resilience layer can supervise
  /// terminals independently and still assemble an identical campaign.
  /// Each row already carries the sky run() allocated against, so this
  /// re-derives nothing: no sky query, no allocation.
  void append_inferred_rows(CampaignData& data, const PipelineResult& result,
                            std::size_t terminal_index) const;

  /// The map geometry the pipeline operates with: the published
  /// (61, 61)/45 px layout.
  [[nodiscard]] const obsmap::MapGeometry& geometry() const {
    return kGeometry;
  }

  /// The scenario this pipeline runs against (the one passed at
  /// construction; the pipeline never outlives it).
  [[nodiscard]] const Scenario& scenario() const { return scenario_; }

  /// §4.1 parameter recovery: accumulate `hours` of trajectories without a
  /// reset and fit the polar-plot geometry from the filled frame.
  [[nodiscard]] static std::optional<obsmap::RecoveredParams>
  recover_geometry_via_fill(const Scenario& scenario,
                            std::size_t terminal_index, double hours);

 private:
  const Scenario& scenario_;
  PipelineConfig config_;
  static constexpr obsmap::MapGeometry kGeometry{};
};

}  // namespace starlab::core
