#include "core/scheduler_model.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "analysis/stats.hpp"
#include "ml/metrics.hpp"
#include "obs/trace.hpp"

namespace starlab::core {

namespace {

constexpr double kHoldoutFraction = 0.2;  ///< the paper's 80/20 split

}  // namespace

int ClusterFeaturizer::z_bucket(double value, double mean, double stddev) {
  if (stddev <= 1e-12) return 0;
  const double z = (value - mean) / stddev;
  const int b = static_cast<int>(std::lround(z));
  return std::clamp(b, kZMin, kZMax);
}

int ClusterFeaturizer::cluster_index(int bz_az, int bz_el, int bz_age,
                                     bool sunlit) {
  const int a = bz_az - kZMin;
  const int e = bz_el - kZMin;
  const int g = bz_age - kZMin;
  return ((a * kBuckets + e) * kBuckets + g) * 2 + (sunlit ? 1 : 0);
}

std::string ClusterFeaturizer::cluster_name(int cluster) {
  const int sun = cluster % 2;
  int rest = cluster / 2;
  const int g = rest % kBuckets + kZMin;
  rest /= kBuckets;
  const int e = rest % kBuckets + kZMin;
  const int a = rest / kBuckets + kZMin;
  char buf[48];
  std::snprintf(buf, sizeof(buf), "(%d,%d,%d,%d)", a, e, g, sun);
  return buf;
}

std::vector<std::string> ClusterFeaturizer::feature_names() {
  std::vector<std::string> names;
  names.reserve(kNumFeatures);
  names.emplace_back("local_hour");
  for (int c = 0; c < kNumClusters; ++c) names.push_back(cluster_name(c));
  return names;
}

ClusterFeaturizer::SlotFeatures ClusterFeaturizer::featurize(
    const SlotObs& slot) const {
  SlotFeatures out;
  out.x.assign(kNumFeatures, 0.0);
  out.x[0] = slot.local_hour;
  if (slot.available.empty()) return out;

  // Per-slot moments of each feature over the available set.
  std::vector<double> az, el, age;
  az.reserve(slot.available.size());
  el.reserve(slot.available.size());
  age.reserve(slot.available.size());
  for (const CandidateObs& c : slot.available) {
    az.push_back(c.azimuth_deg);
    el.push_back(c.elevation_deg);
    age.push_back(c.age_days);
  }
  const double mu_az = analysis::mean(az), sd_az = analysis::stddev(az);
  const double mu_el = analysis::mean(el), sd_el = analysis::stddev(el);
  const double mu_age = analysis::mean(age), sd_age = analysis::stddev(age);

  for (std::size_t i = 0; i < slot.available.size(); ++i) {
    const CandidateObs& c = slot.available[i];
    const int cluster = cluster_index(
        z_bucket(c.azimuth_deg, mu_az, sd_az),
        z_bucket(c.elevation_deg, mu_el, sd_el),
        z_bucket(c.age_days, mu_age, sd_age), c.sunlit);
    out.x[kCountOffset + static_cast<std::size_t>(cluster)] += 1.0;
    if (static_cast<int>(i) == slot.chosen) out.label = cluster;
  }
  return out;
}

ml::Dataset ClusterFeaturizer::build_dataset(
    const CampaignData& data,
    std::optional<std::size_t> terminal_index) const {
  std::vector<std::string> class_names;
  class_names.reserve(kNumClusters);
  for (int c = 0; c < kNumClusters; ++c) class_names.push_back(cluster_name(c));

  ml::Dataset out(kNumFeatures, feature_names(), std::move(class_names));
  for (const SlotObs& slot : data.slots) {
    if (terminal_index.has_value() && slot.terminal_index != *terminal_index) {
      continue;
    }
    SlotFeatures f = featurize(slot);
    if (f.label < 0) continue;
    out.add_row(f.x, f.label);
  }
  return out;
}

ModelEvaluation train_scheduler_model(
    const CampaignData& data, const ModelTrainConfig& config,
    std::optional<std::size_t> terminal_index) {
  const obs::ObsSpan span("train.run");
  const bool timed = obs::enabled();

  ModelEvaluation out;
  out.report.kind = "train";
  out.report.label = terminal_index.has_value()
                         ? "terminal_" + std::to_string(*terminal_index)
                         : "pooled";
  obs::StageStat* st_featurize =
      timed ? &out.report.stage("featurize") : nullptr;
  obs::StageStat* st_select = timed ? &out.report.stage("select") : nullptr;
  obs::StageStat* st_fit = timed ? &out.report.stage("fit") : nullptr;
  obs::StageStat* st_evaluate =
      timed ? &out.report.stage("evaluate") : nullptr;

  const ClusterFeaturizer featurizer;
  const ml::Dataset all = [&] {
    const obs::ObsSpan stage_span("train.featurize", st_featurize);
    return featurizer.build_dataset(data, terminal_index);
  }();
  if (all.size() < 20) return out;

  std::mt19937_64 rng(config.seed);
  const ml::IndexSplit split =
      ml::train_test_split(all.size(), kHoldoutFraction, rng);
  const ml::Dataset train = all.subset(split.train);
  out.train_rows = train.size();
  out.holdout_rows = split.test.size();

  // Model selection.
  {
    const obs::ObsSpan stage_span("train.select", st_select);
    if (config.grid.has_value()) {
      const ml::GridSearchResult gs =
          ml::grid_search(train, *config.grid, {config.folds, config.seed});
      out.chosen_config = gs.best_config;
      out.cv_accuracy = gs.best_cv_accuracy;
    } else {
      out.chosen_config.num_trees = 80;
      out.chosen_config.tree.max_depth = 16;
      out.chosen_config.tree.min_samples_leaf = 2;
      out.chosen_config.seed = config.seed;
      out.cv_accuracy = ml::cross_validate(train, out.chosen_config,
                                           config.folds, config.seed);
    }
  }

  // Final fit and holdout evaluation.
  ml::RandomForest forest(out.chosen_config);
  {
    const obs::ObsSpan stage_span("train.fit", st_fit);
    forest.fit(train);
  }
  const ml::PopularityBaseline baseline(ClusterFeaturizer::kCountOffset,
                                        ClusterFeaturizer::kNumClusters);

  const obs::ObsSpan evaluate_span("train.evaluate", st_evaluate);
  std::vector<std::vector<int>> forest_ranks, baseline_ranks;
  std::vector<int> labels;
  forest_ranks.reserve(split.test.size());
  baseline_ranks.reserve(split.test.size());
  for (const std::size_t i : split.test) {
    forest_ranks.push_back(forest.ranked_classes(all.row(i)));
    baseline_ranks.push_back(baseline.ranked_classes(all.row(i)));
    labels.push_back(all.label(i));
  }

  out.forest_top_k.resize(static_cast<std::size_t>(kMaxK));
  out.baseline_top_k.resize(static_cast<std::size_t>(kMaxK));
  for (int k = 1; k <= kMaxK; ++k) {
    out.forest_top_k[static_cast<std::size_t>(k - 1)] =
        ml::top_k_accuracy(forest_ranks, labels, k);
    out.baseline_top_k[static_cast<std::size_t>(k - 1)] =
        ml::top_k_accuracy(baseline_ranks, labels, k);
  }

  // Named, ranked gini importances.
  const std::vector<double> imp = forest.feature_importances();
  const std::vector<std::string>& names = all.feature_names();
  for (std::size_t f = 0; f < imp.size(); ++f) {
    out.importances.emplace_back(names[f], imp[f]);
  }
  std::stable_sort(out.importances.begin(), out.importances.end(),
                   [](const auto& a, const auto& b) { return a.second > b.second; });

  out.report.add_value("cv_accuracy", out.cv_accuracy);
  if (!out.forest_top_k.empty()) {
    out.report.add_value("forest_top1", out.forest_top_k.front());
    out.report.add_value("baseline_top1", out.baseline_top_k.front());
  }
  out.report.add_value("train_rows", static_cast<double>(out.train_rows));
  out.report.add_value("holdout_rows", static_cast<double>(out.holdout_rows));
  out.report.wall_ns = span.elapsed_ns();
  return out;
}

}  // namespace starlab::core
