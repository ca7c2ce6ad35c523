#include "ml/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace starlab::ml {

void Dataset::add_row(std::span<const double> features, int label) {
  if (features.size() != num_features_) {
    throw std::invalid_argument("feature width mismatch");
  }
  if (label < 0) throw std::invalid_argument("labels must be non-negative");
  // NaN has no place in a sorted feature column (no strict weak order), and
  // the split search ranks every value among its column's distinct values.
  for (const double v : features) {
    if (!std::isfinite(v)) {
      throw std::invalid_argument("feature values must be finite");
    }
  }
  values_.insert(values_.end(), features.begin(), features.end());
  labels_.push_back(label);
}

int Dataset::num_classes() const {
  if (!class_names_.empty()) return static_cast<int>(class_names_.size());
  int m = 0;
  for (const int y : labels_) m = std::max(m, y + 1);
  return m;
}

Dataset Dataset::subset(std::span<const std::size_t> indices) const {
  Dataset out(num_features_, feature_names_, class_names_);
  for (const std::size_t i : indices) {
    out.add_row(row(i), labels_[i]);
  }
  return out;
}

IndexSplit train_test_split(std::size_t n, double test_fraction,
                            std::mt19937_64& rng) {
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  std::shuffle(idx.begin(), idx.end(), rng);

  const auto n_test = static_cast<std::size_t>(test_fraction * static_cast<double>(n));
  IndexSplit split;
  split.test.assign(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(n_test));
  split.train.assign(idx.begin() + static_cast<std::ptrdiff_t>(n_test), idx.end());
  return split;
}

std::vector<IndexSplit> k_fold_splits(std::size_t n, int k,
                                      std::mt19937_64& rng) {
  if (k < 2) throw std::invalid_argument("k-fold requires k >= 2");
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  std::shuffle(idx.begin(), idx.end(), rng);

  std::vector<IndexSplit> out(static_cast<std::size_t>(k));
  for (std::size_t i = 0; i < n; ++i) {
    const auto fold = static_cast<std::size_t>(i % static_cast<std::size_t>(k));
    out[fold].test.push_back(idx[i]);
  }
  for (std::size_t f = 0; f < out.size(); ++f) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto fold = static_cast<std::size_t>(i % static_cast<std::size_t>(k));
      if (fold != f) out[f].train.push_back(idx[i]);
    }
  }
  return out;
}

}  // namespace starlab::ml
