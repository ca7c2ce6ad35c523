#pragma once

// Evaluation metrics. The paper's headline metric is top-k accuracy: the
// prediction counts as correct if the true class appears among the model's
// k most likely classes (Fig 8 sweeps k = 1..9).

#include <span>
#include <vector>

namespace starlab::ml {

/// Interface alias: something that ranks classes for a feature row, most
/// likely first.
using RankFn = std::vector<int> (*)(std::span<const double>);

/// Top-k accuracy given per-row class rankings and true labels.
[[nodiscard]] double top_k_accuracy(
    std::span<const std::vector<int>> rankings, std::span<const int> labels,
    int k);

/// Plain accuracy (top-1 over argmax predictions).
[[nodiscard]] double accuracy(std::span<const int> predictions,
                              std::span<const int> labels);

}  // namespace starlab::ml
