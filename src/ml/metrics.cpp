#include "ml/metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace starlab::ml {

double top_k_accuracy(std::span<const std::vector<int>> rankings,
                      std::span<const int> labels, int k) {
  if (rankings.size() != labels.size()) {
    throw std::invalid_argument("rankings/labels size mismatch");
  }
  if (rankings.empty()) return 0.0;

  std::size_t hits = 0;
  for (std::size_t i = 0; i < rankings.size(); ++i) {
    const std::vector<int>& r = rankings[i];
    const auto depth = std::min<std::size_t>(static_cast<std::size_t>(k), r.size());
    for (std::size_t j = 0; j < depth; ++j) {
      if (r[j] == labels[i]) {
        ++hits;
        break;
      }
    }
  }
  return static_cast<double>(hits) / static_cast<double>(rankings.size());
}

double accuracy(std::span<const int> predictions, std::span<const int> labels) {
  if (predictions.size() != labels.size()) {
    throw std::invalid_argument("predictions/labels size mismatch");
  }
  if (predictions.empty()) return 0.0;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    if (predictions[i] == labels[i]) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(predictions.size());
}

}  // namespace starlab::ml
