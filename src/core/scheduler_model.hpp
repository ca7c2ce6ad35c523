#pragma once

// §6: the offline approximation of the global scheduler.
//
// Feature engineering follows the paper exactly. For each 15-second slot the
// available satellites are clustered by how many standard deviations each of
// azimuth / angle-of-elevation / age sits from the slot's own mean (plus the
// binary sunlit flag): satellite s lands in cluster
//     ( round((az_s - mu_az)/sigma_az), round((el_s - mu_el)/sigma_el),
//       round((age_s - mu_age)/sigma_age), sunlit_s )
// with z-buckets clamped to [-2, 2]. The model's inputs are the local solar
// hour plus the per-cluster satellite counts; its target is the cluster of
// the satellite the scheduler picked. A random forest is trained with
// grid-searched hyper-parameters under 5-fold CV on 80 % of the data and
// validated on the 20 % holdout; accuracy is reported as top-k against the
// popularity baseline (Fig 8), and gini importances explain the learned
// preferences.

#include <optional>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "ml/baseline.hpp"
#include "ml/dataset.hpp"
#include "ml/grid_search.hpp"
#include "ml/random_forest.hpp"

namespace starlab::core {

class ClusterFeaturizer {
 public:
  static constexpr int kZMin = -2;
  static constexpr int kZMax = 2;
  static constexpr int kBuckets = kZMax - kZMin + 1;  // 5
  static constexpr int kNumClusters = kBuckets * kBuckets * kBuckets * 2;  // 250
  /// Feature layout: [local_hour, count(cluster 0), ..., count(cluster 249)].
  static constexpr std::size_t kNumFeatures = 1 + kNumClusters;
  static constexpr std::size_t kCountOffset = 1;

  /// Clamped integer z-bucket.
  [[nodiscard]] static int z_bucket(double value, double mean, double stddev);

  /// Flat cluster index from bucket coordinates.
  [[nodiscard]] static int cluster_index(int bz_az, int bz_el, int bz_age,
                                         bool sunlit);

  /// Human-readable "(az,el,age,sun)" tuple for a cluster index — the form
  /// the paper's feature-importance discussion uses.
  [[nodiscard]] static std::string cluster_name(int cluster);

  /// Feature-column names (for importance reports).
  [[nodiscard]] static std::vector<std::string> feature_names();

  /// One slot's features and label. `label` is -1 when the slot has no
  /// recorded pick (such slots are skipped during training).
  struct SlotFeatures {
    std::vector<double> x;
    int label = -1;
  };
  [[nodiscard]] SlotFeatures featurize(const SlotObs& slot) const;

  /// A dataset over all (or one terminal's) slots of a campaign.
  [[nodiscard]] ml::Dataset build_dataset(
      const CampaignData& data,
      std::optional<std::size_t> terminal_index = std::nullopt) const;
};

/// Training holds out 20 % of the slots (the paper's 80/20 split) and
/// scores top-k for k = 1..kMaxK.
inline constexpr int kMaxK = 9;  ///< Fig 8 sweeps k = 1..9

struct ModelTrainConfig {
  int folds = 5;
  std::uint64_t seed = 29;
  /// Full grid search is expensive; when unset, a fixed known-good forest
  /// configuration is used instead (tests) while benches run the search.
  std::optional<ml::GridSearchSpace> grid;
};

struct ModelEvaluation {
  /// Holdout top-k accuracy for k = 1..kMaxK (index k-1).
  std::vector<double> forest_top_k;
  std::vector<double> baseline_top_k;
  double cv_accuracy = 0.0;       ///< best CV top-1 during selection
  ml::ForestConfig chosen_config;
  /// (feature name, gini importance), descending, full ranking.
  std::vector<std::pair<std::string, double>> importances;
  std::size_t train_rows = 0;
  std::size_t holdout_rows = 0;
  /// Run summary: stage timings (featurize / select / fit / evaluate, when
  /// observability is on) plus the headline accuracies as named values.
  obs::RunReport report;
};

/// Train and evaluate the §6 model on a campaign (all terminals pooled, or
/// one terminal).
[[nodiscard]] ModelEvaluation train_scheduler_model(
    const CampaignData& data, const ModelTrainConfig& config = {},
    std::optional<std::size_t> terminal_index = std::nullopt);

}  // namespace starlab::core
