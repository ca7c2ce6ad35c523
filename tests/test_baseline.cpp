#include "ml/baseline.hpp"

#include <gtest/gtest.h>

namespace starlab::ml {
namespace {

TEST(Baseline, RanksByCount) {
  // Layout: [local_hour, count0, count1, count2].
  const PopularityBaseline baseline(1, 3);
  const std::vector<double> features{13.0, 2.0, 7.0, 4.0};
  const auto ranked = baseline.ranked_classes(features);
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0], 1);
  EXPECT_EQ(ranked[1], 2);
  EXPECT_EQ(ranked[2], 0);
  EXPECT_EQ(baseline.ranked_classes(features).front(), 1);
}

TEST(Baseline, StableOrderOnTies) {
  const PopularityBaseline baseline(0, 4);
  const std::vector<double> features{3.0, 3.0, 3.0, 3.0};
  const auto ranked = baseline.ranked_classes(features);
  EXPECT_EQ(ranked, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Baseline, IgnoresNonCountColumns) {
  const PopularityBaseline baseline(2, 2);
  // First two columns are huge but must be ignored.
  const std::vector<double> features{1e9, 1e9, 1.0, 5.0};
  EXPECT_EQ(baseline.ranked_classes(features).front(), 1);
}

TEST(Baseline, ZeroCountsStillRankAll) {
  const PopularityBaseline baseline(0, 5);
  const std::vector<double> features(5, 0.0);
  EXPECT_EQ(baseline.ranked_classes(features).size(), 5u);
}

}  // namespace
}  // namespace starlab::ml
