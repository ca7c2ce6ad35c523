#pragma once

// Tabular dataset and resampling helpers for the §6 scheduler model:
// row-major feature matrix, integer class labels, named columns/classes,
// holdout splitting and k-fold indices (the paper uses an 80/20 holdout and
// 5-fold cross-validation on the 80 %).

#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <vector>

namespace starlab::ml {

class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(std::size_t num_features,
                   std::vector<std::string> feature_names = {},
                   std::vector<std::string> class_names = {})
      : num_features_(num_features),
        feature_names_(std::move(feature_names)),
        class_names_(std::move(class_names)) {}

  /// Throws std::invalid_argument on a width mismatch, a negative label or
  /// a non-finite feature value.
  void add_row(std::span<const double> features, int label);

  [[nodiscard]] std::size_t size() const { return labels_.size(); }
  [[nodiscard]] std::size_t num_features() const { return num_features_; }
  [[nodiscard]] int num_classes() const;

  [[nodiscard]] std::span<const double> row(std::size_t i) const {
    return {values_.data() + i * num_features_, num_features_};
  }
  [[nodiscard]] int label(std::size_t i) const { return labels_[i]; }
  [[nodiscard]] const std::vector<int>& labels() const { return labels_; }

  [[nodiscard]] const std::vector<std::string>& feature_names() const {
    return feature_names_;
  }

  /// A dataset containing only the given rows (e.g. one fold).
  [[nodiscard]] Dataset subset(std::span<const std::size_t> indices) const;

 private:
  std::size_t num_features_ = 0;
  std::vector<double> values_;  ///< row-major
  std::vector<int> labels_;
  std::vector<std::string> feature_names_;
  std::vector<std::string> class_names_;
};

/// Index split into train and test.
struct IndexSplit {
  std::vector<std::size_t> train;
  std::vector<std::size_t> test;
};

/// Shuffled holdout split (the paper's 80/20).
[[nodiscard]] IndexSplit train_test_split(std::size_t n, double test_fraction,
                                          std::mt19937_64& rng);

/// Shuffled k-fold splits: each element's test set is one fold, its train
/// set the remaining k-1 folds.
[[nodiscard]] std::vector<IndexSplit> k_fold_splits(std::size_t n, int k,
                                                    std::mt19937_64& rng);

}  // namespace starlab::ml
