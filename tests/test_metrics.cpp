#include "ml/metrics.hpp"

#include <gtest/gtest.h>

namespace starlab::ml {
namespace {

TEST(Metrics, TopKAccuracyBasics) {
  const std::vector<std::vector<int>> rankings{
      {2, 0, 1},  // truth 2 -> hit at k=1
      {0, 2, 1},  // truth 2 -> hit at k=2
      {0, 1, 2},  // truth 2 -> hit at k=3
  };
  const std::vector<int> labels{2, 2, 2};
  EXPECT_NEAR(top_k_accuracy(rankings, labels, 1), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(top_k_accuracy(rankings, labels, 2), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(top_k_accuracy(rankings, labels, 3), 1.0, 1e-12);
}

TEST(Metrics, TopKIsMonotoneInK) {
  const std::vector<std::vector<int>> rankings{
      {0, 1, 2, 3}, {3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1}};
  const std::vector<int> labels{2, 2, 2, 2};
  double prev = 0.0;
  for (int k = 1; k <= 4; ++k) {
    const double acc = top_k_accuracy(rankings, labels, k);
    EXPECT_GE(acc, prev);
    prev = acc;
  }
  EXPECT_DOUBLE_EQ(prev, 1.0);
}

TEST(Metrics, TopKBeyondRankingLengthIsSafe) {
  const std::vector<std::vector<int>> rankings{{0, 1}};
  const std::vector<int> labels{5};
  EXPECT_DOUBLE_EQ(top_k_accuracy(rankings, labels, 10), 0.0);
}

TEST(Metrics, TopKSizeMismatchThrows) {
  const std::vector<std::vector<int>> rankings{{0}};
  const std::vector<int> labels{0, 1};
  EXPECT_THROW((void)top_k_accuracy(rankings, labels, 1),
               std::invalid_argument);
}

TEST(Metrics, Accuracy) {
  const std::vector<int> pred{0, 1, 2, 1};
  const std::vector<int> truth{0, 1, 1, 1};
  EXPECT_DOUBLE_EQ(accuracy(pred, truth), 0.75);
  EXPECT_DOUBLE_EQ(accuracy({}, {}), 0.0);
  EXPECT_THROW((void)accuracy(pred, std::vector<int>{0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace starlab::ml
