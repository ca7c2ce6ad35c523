#pragma once

// CART decision-tree classifier (gini impurity), the base learner of the
// random forest. Supports per-split feature subsampling (mtry) and exposes
// per-feature impurity-decrease totals for gini importances.

#include <cstdint>
#include <iosfwd>
#include <random>
#include <span>
#include <vector>

#include "ml/dataset.hpp"

namespace starlab::ml {

/// Every feature value of a dataset replaced by its rank among that
/// feature's distinct values (distinct under `==`, so -0.0 and +0.0 share
/// a rank). Built once per dataset and read-only afterwards, so a forest
/// shares one table across all of its trees; the split search
/// counting-sorts a node's rows by rank instead of sorting values.
class FeatureRanks {
 public:
  explicit FeatureRanks(const Dataset& data);

  /// Feature `f`'s distinct values, ascending; rank r names distinct(f)[r].
  [[nodiscard]] std::span<const double> distinct(std::size_t f) const {
    return distinct_[f];
  }
  /// Feature `f`'s rank for every row, indexed by row.
  [[nodiscard]] std::span<const std::uint32_t> ranks(std::size_t f) const {
    return {ranks_.data() + f * rows_, rows_};
  }

 private:
  std::size_t rows_ = 0;
  std::vector<std::vector<double>> distinct_;
  std::vector<std::uint32_t> ranks_;  ///< column-major: [f * rows + row]
};

struct TreeConfig {
  int max_depth = 14;
  int min_samples_split = 4;
  int min_samples_leaf = 2;
  /// Features considered per split; <= 0 means all (plain CART). A forest
  /// sets this to ~sqrt(num_features).
  int mtry = -1;
};

class DecisionTree {
 public:
  explicit DecisionTree(TreeConfig config = {}) : config_(config) {}

  /// Fit on the rows of `data` named by `indices` (with multiplicity — a
  /// bootstrap sample repeats indices).
  void fit(const Dataset& data, std::span<const std::size_t> indices,
           std::mt19937_64& rng);

  /// Same, with a rank table already built from `data` (a forest builds
  /// one and shares it). The fitted tree is identical either way.
  void fit(const Dataset& data, const FeatureRanks& ranks,
           std::span<const std::size_t> indices, std::mt19937_64& rng);

  /// Convenience: fit on the full dataset.
  void fit(const Dataset& data, std::mt19937_64& rng);

  /// Class-probability vector for one feature row.
  [[nodiscard]] std::vector<double> predict_proba(
      std::span<const double> features) const;

  /// Total gini impurity decrease contributed by each feature (unnormalized;
  /// the forest aggregates and normalizes).
  [[nodiscard]] const std::vector<double>& impurity_decrease() const {
    return impurity_decrease_;
  }

  // starlint:allow(reachability): test seam; tests check the grown tree's size
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] int depth() const;

  /// Serialize to a line-oriented text format (see model release docs).
  void save(std::ostream& out) const;

  /// Deserialize a tree written by save(). Throws std::runtime_error on a
  /// malformed stream.
  [[nodiscard]] static DecisionTree load(std::istream& in);

 private:
  struct Node {
    int feature = -1;  ///< -1 for a leaf
    double threshold = 0.0;
    int left = -1;
    int right = -1;
    std::vector<double> proba;  ///< leaf class distribution
  };

  struct FitState;  ///< inputs and reusable scratch of one fit
  int build(FitState& fs, std::size_t begin, std::size_t end, int depth);

  TreeConfig config_;
  int num_classes_ = 0;
  std::vector<Node> nodes_;
  std::vector<double> impurity_decrease_;
};

}  // namespace starlab::ml
