// End-to-end integration: the full paper methodology on one simulated
// world — measure (§3), identify (§4), characterize (§5), model (§6) — all
// from externally observable data only.

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <vector>

#include "core/starlab.hpp"
#include "test_helpers.hpp"

namespace starlab {
namespace {

using starlab::testing::small_scenario;

TEST(Integration, Section3MeasurementFindsTheGrid) {
  const measurement::LatencyModel model(small_scenario().catalog(),
                                        small_scenario().mac_scheduler());
  const measurement::RttProber prober(small_scenario().global_scheduler(),
                                      model);
  const double t0 =
      small_scenario().grid().slot_start(small_scenario().first_slot());
  const measurement::RttSeries series =
      prober.run(small_scenario().terminal(2), t0, t0 + 240.0);

  // Mann-Whitney between consecutive slots (the paper's §3 statistical
  // check): most adjacent windows must differ at p < .05.
  std::map<time::SlotIndex, std::vector<double>> by_slot;
  for (const auto& s : series.received()) by_slot[s.slot].push_back(s.rtt_ms);

  int significant = 0, tested = 0;
  const std::vector<double>* prev = nullptr;
  for (const auto& [slot, vals] : by_slot) {
    if (prev != nullptr && prev->size() > 30 && vals.size() > 30) {
      ++tested;
      if (analysis::mann_whitney_u(*prev, vals).p_two_sided < 0.05) {
        ++significant;
      }
    }
    prev = &vals;
  }
  ASSERT_GT(tested, 8);
  EXPECT_GT(static_cast<double>(significant) / tested, 0.7);
}

TEST(Integration, Section4PipelineFeedsSection5Statistics) {
  // Use pipeline-inferred allocations (not the oracle) to recompute the
  // Fig 4 statistic and confirm the same conclusion emerges.
  const core::InferencePipeline pipeline(small_scenario());
  const core::PipelineResult inferred = pipeline.run(0, 1800.0);

  std::vector<double> chosen_el, available_el;
  for (const core::SlotIdentification& row : inferred.rows) {
    if (!row.inferred_norad.has_value()) continue;
    for (const auto& c : row.sky) {
      available_el.push_back(c.sky.look.elevation_deg);
      if (c.sky.norad_id == *row.inferred_norad) {
        chosen_el.push_back(c.sky.look.elevation_deg);
      }
    }
  }
  ASSERT_GT(chosen_el.size(), 50u);
  EXPECT_GT(analysis::median(chosen_el), analysis::median(available_el) + 5.0);
}

TEST(Integration, FullStudyReproducesHeadlineNumbersDirections) {
  core::CampaignConfig cfg;
  cfg.duration_hours = 4.0;
  const core::CampaignData data = core::run_campaign(small_scenario(), cfg);
  const core::SchedulerCharacterizer ch(data, small_scenario().catalog());

  // Every paper claim, directionally, in one place:
  const core::AoeStats fig4 = ch.aoe_stats(0);
  EXPECT_GT(fig4.median_gap_deg, 0.0);  // selected sit higher

  const core::AzimuthStats fig5 = ch.azimuth_stats(0);
  EXPECT_GT(fig5.north_share_chosen, fig5.north_share_available);  // north

  const core::ModelEvaluation fig8 = core::train_scheduler_model(data);
  ASSERT_FALSE(fig8.forest_top_k.empty());
  EXPECT_GT(fig8.forest_top_k[4], fig8.baseline_top_k[4]);  // model wins
}

TEST(Integration, CatalogSurvivesTextRoundTripIntoPipeline) {
  // Export the synthetic constellation as TLE text, reload it as a fresh
  // catalog (as a downstream user would from CelesTrak), and verify the
  // reloaded world produces identical look angles.
  std::ostringstream text;
  std::vector<tle::Tle> tles;
  for (std::size_t i = 0; i < 50; ++i) {
    tles.push_back(small_scenario().catalog().record(i).tle);
  }
  tle::write_catalog(text, tles);
  const constellation::Catalog reloaded(tle::read_catalog_string(text.str()));

  const auto jd = time::JulianDate::from_unix_seconds(
      small_scenario().epoch_unix() + 100.0);
  const geo::Geodetic site = small_scenario().terminal(0).site();
  for (std::size_t i = 0; i < reloaded.size(); i += 7) {
    const auto a = small_scenario().catalog().look_at(i, site, jd);
    const auto b = reloaded.look_at(i, site, jd);
    // TLE text quantizes elements (1e-4 deg, 1e-8 rev/day): look angles
    // agree to small fractions of a degree.
    EXPECT_NEAR(a.elevation_deg, b.elevation_deg, 0.2);
    EXPECT_NEAR(a.range_km, b.range_km, 5.0);
  }
}

}  // namespace
}  // namespace starlab
