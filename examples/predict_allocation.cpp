// Prediction walkthrough (§6): train the random-forest approximation of the
// global scheduler on campaign data, then use it the way the paper intends —
// given a location and a time, predict the characteristics (cluster) of the
// satellite the scheduler will allocate, and compare with what the oracle
// actually does.
//
// Usage: predict_allocation [campaign_hours]

#include <cstdio>
#include <cstdlib>

#include "core/starlab.hpp"

using namespace starlab;

int main(int argc, char** argv) {
  const double hours = argc > 1 ? std::atof(argv[1]) : 6.0;

  const core::Scenario scenario(core::Scenario::default_config(0.5));
  std::printf("Collecting %.0f h of training data...\n", hours);
  core::CampaignConfig cfg;
  cfg.duration_hours = hours;
  const core::CampaignData data = core::run_campaign(scenario, cfg);

  std::printf("Training (80/20 holdout, 5-fold CV)...\n");
  const core::ModelEvaluation eval = core::train_scheduler_model(data);
  std::printf("  holdout top-1 %.0f%%, top-5 %.0f%% (baseline %.0f%%)\n\n",
              100.0 * eval.forest_top_k[0], 100.0 * eval.forest_top_k[4],
              100.0 * eval.baseline_top_k[4]);

  // Re-fit a forest on everything for the live demo.
  const core::ClusterFeaturizer featurizer;
  const ml::Dataset full = featurizer.build_dataset(data);
  ml::RandomForest forest(eval.chosen_config);
  forest.fit(full);

  // Predict the upcoming slots for Iowa — beyond the training window.
  std::printf("Predicting the next 5 slots for %s:\n",
              scenario.terminal(0).name().c_str());
  const time::SlotIndex first_future =
      scenario.grid().slot_of(scenario.epoch_unix() + hours * 3600.0) + 1;

  int hits_top5 = 0, total = 0;
  for (time::SlotIndex s = first_future; s < first_future + 5; ++s) {
    // The feature row uses observable data only; the oracle's pick, made
    // from the same sky, supplies the true cluster.
    const ground::Terminal& terminal = scenario.terminal(0);
    const std::vector<ground::Candidate> sky = terminal.candidates(
        scenario.catalog(),
        time::JulianDate::from_unix_seconds(scenario.grid().slot_mid(s)));
    const auto truth = scenario.global_scheduler().allocate_from(terminal, s, sky);
    const core::SlotObs obs = core::observe_slot(
        scenario, 0, s, sky,
        truth.has_value() ? std::optional<int>(truth->norad_id) : std::nullopt);
    const auto features = featurizer.featurize(obs);
    const std::vector<int> ranked = forest.ranked_classes(features.x);
    const int truth_cluster = features.label;

    std::printf("  slot %+d: predicted clusters", static_cast<int>(s - first_future));
    bool hit = false;
    for (int k = 0; k < 5; ++k) {
      const int cls = ranked[static_cast<std::size_t>(k)];
      const bool match = cls == truth_cluster;
      hit = hit || match;
      std::printf(" %s%s", core::ClusterFeaturizer::cluster_name(cls).c_str(),
                  match ? "*" : "");
    }
    if (truth_cluster >= 0) {
      ++total;
      if (hit) ++hits_top5;
      std::printf("   truth %s",
                  core::ClusterFeaturizer::cluster_name(truth_cluster).c_str());
    }
    std::printf("\n");
  }
  if (total > 0) {
    std::printf("\ntop-5 hits on these live slots: %d/%d\n", hits_top5, total);
  }
  std::printf("(cluster tuples are (azimuth, AOE, age, sunlit) z-buckets, as "
              "in the paper)\n");
  return 0;
}
