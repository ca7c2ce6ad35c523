#pragma once

// The paper's comparison baseline: "simply return the (top-k) cluster(s)
// with the most available satellites as its prediction". With the feature
// layout [local_hour, count(cluster 0), ..., count(cluster C-1)] this reads
// the counts straight off the feature row — no training involved.

#include <span>
#include <vector>

namespace starlab::ml {

class PopularityBaseline {
 public:
  /// @param count_offset  index of the first cluster-count feature
  /// @param num_classes   number of clusters (== count features == classes)
  PopularityBaseline(std::size_t count_offset, int num_classes)
      : count_offset_(count_offset), num_classes_(num_classes) {}

  /// Classes ordered by available-satellite count, largest first.
  [[nodiscard]] std::vector<int> ranked_classes(
      std::span<const double> features) const;

 private:
  std::size_t count_offset_;
  int num_classes_;
};

}  // namespace starlab::ml
