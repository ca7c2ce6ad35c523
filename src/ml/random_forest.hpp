#pragma once

// Bagged random-forest classifier — the paper's §6 model choice ("robust to
// over-fitting, explainable predictions"). Bootstrap sampling per tree,
// sqrt(p) feature subsampling per split, soft-voted probabilities for the
// top-k metric, and normalized gini feature importances.

#include <iosfwd>
#include <random>
#include <span>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/decision_tree.hpp"

namespace starlab::ml {

struct ForestConfig {
  int num_trees = 100;
  TreeConfig tree;          ///< tree.mtry <= 0 -> sqrt(num_features)
  double bootstrap_fraction = 1.0;
  std::uint64_t seed = 17;
};

class RandomForest {
 public:
  explicit RandomForest(ForestConfig config = {}) : config_(config) {}

  void fit(const Dataset& data);

  /// Soft-voted class probabilities.
  [[nodiscard]] std::vector<double> predict_proba(
      std::span<const double> features) const;

  /// Argmax class.
  [[nodiscard]] int predict(std::span<const double> features) const;

  /// Classes ordered by predicted probability, most likely first (the
  /// ranking behind the paper's top-k accuracy metric).
  [[nodiscard]] std::vector<int> ranked_classes(
      std::span<const double> features) const;

  /// Gini feature importances, normalized to sum to 1.
  [[nodiscard]] std::vector<double> feature_importances() const;

  [[nodiscard]] const std::vector<DecisionTree>& trees() const {
    return trees_;
  }

  /// Serialize the fitted forest (config + every tree) to a text stream —
  /// the "model release" format. Predictions of a loaded forest are
  /// bit-identical to the original's.
  void save(std::ostream& out) const;

  /// Deserialize a forest written by save(). Throws std::runtime_error on a
  /// malformed stream.
  [[nodiscard]] static RandomForest load(std::istream& in);

 private:
  ForestConfig config_;
  std::vector<DecisionTree> trees_;
  std::size_t num_features_ = 0;
  int num_classes_ = 0;
};

}  // namespace starlab::ml
