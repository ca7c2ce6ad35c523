#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include "core/campaign.hpp"
#include "fault/fault_plan.hpp"
#include "obs/config.hpp"
#include "obs/metrics.hpp"
#include "test_helpers.hpp"

namespace starlab::core {
namespace {

using starlab::testing::small_scenario;

void expect_rows_identical(const PipelineResult& a, const PipelineResult& b) {
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    const SlotIdentification& x = a.rows[i];
    const SlotIdentification& y = b.rows[i];
    EXPECT_EQ(x.slot, y.slot) << "row " << i;
    EXPECT_EQ(x.truth_norad, y.truth_norad) << "row " << i;
    EXPECT_EQ(x.inferred_norad, y.inferred_norad) << "row " << i;
    EXPECT_EQ(x.dtw, y.dtw) << "row " << i;  // bit-identical, not just close
    EXPECT_EQ(x.num_candidates, y.num_candidates) << "row " << i;
    EXPECT_EQ(x.trajectory_pixels, y.trajectory_pixels) << "row " << i;
    EXPECT_EQ(x.quality, y.quality) << "row " << i;
    EXPECT_EQ(x.confidence, y.confidence) << "row " << i;
    EXPECT_EQ(x.abstain, y.abstain) << "row " << i;
  }
}

void expect_campaigns_identical(const CampaignData& a, const CampaignData& b) {
  ASSERT_EQ(a.slots.size(), b.slots.size());
  EXPECT_EQ(a.terminal_names, b.terminal_names);
  for (std::size_t i = 0; i < a.slots.size(); ++i) {
    const SlotObs& x = a.slots[i];
    const SlotObs& y = b.slots[i];
    EXPECT_EQ(x.slot, y.slot) << "slot obs " << i;
    EXPECT_EQ(x.terminal_index, y.terminal_index) << "slot obs " << i;
    EXPECT_EQ(x.unix_mid, y.unix_mid) << "slot obs " << i;
    EXPECT_EQ(x.chosen, y.chosen) << "slot obs " << i;
    EXPECT_EQ(x.quality, y.quality) << "slot obs " << i;
    EXPECT_EQ(x.confidence, y.confidence) << "slot obs " << i;
    ASSERT_EQ(x.available.size(), y.available.size()) << "slot obs " << i;
    for (std::size_t c = 0; c < x.available.size(); ++c) {
      EXPECT_EQ(x.available[c].norad_id, y.available[c].norad_id);
      EXPECT_EQ(x.available[c].azimuth_deg, y.available[c].azimuth_deg);
      EXPECT_EQ(x.available[c].elevation_deg, y.available[c].elevation_deg);
    }
  }
}

TEST(FaultPipeline, IntensityZeroIsBitIdenticalToUnfaulted) {
  const InferencePipeline baseline(small_scenario());
  const PipelineResult clean = baseline.run(0, 600.0);

  fault::FaultPlan plan;
  plan.frame.drop_rate = 0.3;
  plan.frame.bit_flip_rate = 0.01;
  PipelineConfig cfg;
  cfg.faults = plan.with_intensity(0.0);
  const InferencePipeline faulted(small_scenario(), cfg);
  const PipelineResult zero = faulted.run(0, 600.0);

  expect_rows_identical(clean, zero);
}

TEST(FaultPipeline, FrameDropsAbstainInsteadOfMisidentifying) {
  // The tentpole acceptance bar: at <=10 % frame drops the pipeline degrades
  // by answering less, not by answering wrong.
  fault::FaultPlan plan;
  plan.frame.drop_rate = 0.10;
  PipelineConfig cfg;
  cfg.faults = plan;
  const InferencePipeline pipeline(small_scenario(), cfg);
  const PipelineResult result = pipeline.run(0, 1200.0);

  ASSERT_GT(result.decided(), 30u);
  EXPECT_GE(result.accuracy(), 0.95);

  // The drops themselves are visible and near the configured rate.
  const std::size_t missing = result.flagged(quality::kFrameMissing);
  EXPECT_GT(missing, 0u);
  EXPECT_LT(missing, result.rows.size() / 4);

  // A slot whose poll failed never carries an answer...
  for (const SlotIdentification& row : result.rows) {
    if ((row.quality & quality::kFrameMissing) != 0) {
      EXPECT_FALSE(row.inferred_norad.has_value());
    }
  }
  // ...and the slot after a failed poll runs against a stale baseline, which
  // is flagged rather than silently absorbed.
  EXPECT_GT(result.flagged(quality::kStaleBaseline), 0u);
}

TEST(FaultPipeline, StaleBaselineSlotsAbstainViaComponentCheck) {
  // A stale baseline XORs two trajectories together; the identifier's
  // multi-component abstention is what keeps those slots from poisoning the
  // decided set.
  fault::FaultPlan plan;
  plan.frame.drop_rate = 0.15;
  PipelineConfig cfg;
  cfg.faults = plan;
  const InferencePipeline pipeline(small_scenario(), cfg);
  const PipelineResult result = pipeline.run(0, 1800.0);

  std::size_t stale = 0, stale_abstained = 0;
  for (const SlotIdentification& row : result.rows) {
    if ((row.quality & quality::kStaleBaseline) == 0) continue;
    ++stale;
    if (row.abstained()) ++stale_abstained;
  }
  ASSERT_GT(stale, 0u);
  EXPECT_GT(stale_abstained, 0u);
  EXPECT_EQ(result.flagged(quality::kAbstained), result.abstained());
}

TEST(FaultPipeline, BitFlipsAreFlaggedAndAccuracySurvives) {
  fault::FaultPlan plan;
  plan.frame.bit_flip_rate = 2e-4;  // ~3 flipped pixels per frame
  PipelineConfig cfg;
  cfg.faults = plan;
  const InferencePipeline pipeline(small_scenario(), cfg);
  const PipelineResult result = pipeline.run(0, 1200.0);

  EXPECT_GT(result.flagged(quality::kFrameCorrupted), 0u);
  ASSERT_GT(result.decided(), 20u);
  // Sparse corruption may cost decisions (abstentions) but not correctness.
  EXPECT_GE(result.accuracy(), 0.9);
}

TEST(FaultPipeline, InferredCampaignCarriesQualityAndConfidence) {
  fault::FaultPlan plan;
  plan.frame.drop_rate = 0.10;
  PipelineConfig cfg;
  cfg.faults = plan;
  const InferencePipeline pipeline(small_scenario(), cfg);
  const CampaignData campaign = pipeline.run_inferred_campaign(600.0);

  ASSERT_FALSE(campaign.slots.empty());
  std::size_t degraded = 0;
  for (const SlotObs& s : campaign.slots) {
    if (s.quality != 0) ++degraded;
    if (s.has_choice()) {
      EXPECT_GT(s.confidence, 0.0);
      EXPECT_LE(s.confidence, 1.0);
    } else {
      EXPECT_EQ(s.confidence, 0.0);
    }
  }
  EXPECT_GT(degraded, 0u);
}

TEST(FaultCampaign, IntensityZeroIsBitIdenticalToUnfaulted) {
  CampaignConfig clean_cfg;
  clean_cfg.duration_hours = 0.25;
  const CampaignData clean = run_campaign(small_scenario(), clean_cfg);

  fault::FaultPlan plan;
  plan.dropout.rate = 0.3;
  CampaignConfig faulted_cfg;
  faulted_cfg.duration_hours = 0.25;
  faulted_cfg.faults = plan.with_intensity(0.0);
  const CampaignData zero = run_campaign(small_scenario(), faulted_cfg);

  expect_campaigns_identical(clean, zero);
}

TEST(FaultCampaign, DropoutMetricCountsFlaggedSlots) {
  // starlab_campaign_dropout_slots_total grows by exactly the number of rows
  // the run flags kCandidateDropout.
  const obs::Config saved = obs::config();
  obs::Config metrics_only;
  metrics_only.metrics = true;
  obs::set_config(metrics_only);
  const obs::Counter dropout_slots = obs::MetricsRegistry::instance().counter(
      "starlab_campaign_dropout_slots_total");
  const std::uint64_t before = dropout_slots.value();

  fault::FaultPlan plan;
  plan.dropout.rate = 0.2;
  CampaignConfig cfg;
  cfg.duration_hours = 0.25;
  cfg.faults = plan;
  const CampaignData faulted = run_campaign(small_scenario(), cfg);
  const std::uint64_t after = dropout_slots.value();
  obs::set_config(saved);

  std::uint64_t flagged = 0;
  for (const SlotObs& s : faulted.slots) {
    if ((s.quality & quality::kCandidateDropout) != 0) ++flagged;
  }
  EXPECT_GT(flagged, 0u);
  EXPECT_EQ(after - before, flagged);
}

TEST(FaultCampaign, DropoutShrinksCandidateSetsAndFlagsSlots) {
  CampaignConfig base_cfg;
  base_cfg.duration_hours = 0.25;
  const CampaignData baseline = run_campaign(small_scenario(), base_cfg);

  fault::FaultPlan plan;
  plan.dropout.rate = 0.2;
  CampaignConfig cfg;
  cfg.duration_hours = 0.25;
  cfg.faults = plan;
  const CampaignData faulted = run_campaign(small_scenario(), cfg);

  ASSERT_EQ(faulted.slots.size(), baseline.slots.size());
  std::size_t base_candidates = 0, faulted_candidates = 0, flagged = 0;
  for (std::size_t i = 0; i < faulted.slots.size(); ++i) {
    base_candidates += baseline.slots[i].available.size();
    faulted_candidates += faulted.slots[i].available.size();
    if ((faulted.slots[i].quality & quality::kCandidateDropout) != 0) {
      ++flagged;
      EXPECT_LE(faulted.slots[i].available.size(),
                baseline.slots[i].available.size());
    }
  }
  EXPECT_LT(faulted_candidates, base_candidates);
  EXPECT_GT(flagged, faulted.slots.size() / 2);  // 20 % per-sat, ~9 sats/slot

  // Dropping the chosen satellite forces a different (or no) choice, never a
  // phantom one: every chosen index still points into the recorded set.
  for (const SlotObs& s : faulted.slots) {
    if (s.has_choice()) {
      EXPECT_LT(static_cast<std::size_t>(s.chosen), s.available.size());
    } else {
      EXPECT_EQ(s.confidence, 0.0);
    }
  }
}

TEST(FaultCampaign, ScenarioWidePlanAppliesWhenNoOverrideGiven) {
  // A plan installed on the scenario config reaches run_campaign without a
  // per-run override.
  ScenarioConfig cfg = Scenario::default_config(0.125);
  cfg.faults.dropout.rate = 0.5;
  const Scenario scenario(std::move(cfg));
  EXPECT_TRUE(scenario.fault_plan().enabled());

  CampaignConfig run_cfg;
  run_cfg.duration_hours = 0.1;
  const CampaignData data = run_campaign(scenario, run_cfg);
  std::size_t flagged = 0;
  for (const SlotObs& s : data.slots) {
    if ((s.quality & quality::kCandidateDropout) != 0) ++flagged;
  }
  EXPECT_GT(flagged, 0u);
}

}  // namespace
}  // namespace starlab::core
