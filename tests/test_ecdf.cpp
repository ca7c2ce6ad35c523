#include "analysis/ecdf.hpp"

#include <gtest/gtest.h>

#include <random>
#include <vector>

namespace starlab::analysis {
namespace {

TEST(Ecdf, EmptyIsZero) {
  const Ecdf e;
  EXPECT_TRUE(e.empty());
  EXPECT_DOUBLE_EQ(e(123.0), 0.0);
}

TEST(Ecdf, StepFunctionValues) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  const Ecdf e(v);
  EXPECT_DOUBLE_EQ(e(0.5), 0.0);
  EXPECT_DOUBLE_EQ(e(1.0), 0.25);
  EXPECT_DOUBLE_EQ(e(2.5), 0.5);
  EXPECT_DOUBLE_EQ(e(4.0), 1.0);
  EXPECT_DOUBLE_EQ(e(100.0), 1.0);
}

TEST(Ecdf, TiesCountTogether) {
  const std::vector<double> v{2.0, 2.0, 2.0, 5.0};
  const Ecdf e(v);
  EXPECT_DOUBLE_EQ(e(1.9), 0.0);
  EXPECT_DOUBLE_EQ(e(2.0), 0.75);
}

TEST(Ecdf, MonotoneNonDecreasing) {
  std::mt19937 rng(7);
  std::normal_distribution<double> dist(50.0, 10.0);
  std::vector<double> v;
  for (int i = 0; i < 500; ++i) v.push_back(dist(rng));
  const Ecdf e(v);
  double prev = -1.0;
  for (double x = 0.0; x <= 100.0; x += 0.5) {
    const double p = e(x);
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(Ecdf, SeriesCoversRange) {
  const std::vector<double> v{10.0, 20.0, 30.0};
  const Ecdf e(v);
  const auto series = e.series(0.0, 40.0, 5);
  ASSERT_EQ(series.size(), 5u);
  EXPECT_DOUBLE_EQ(series.front().first, 0.0);
  EXPECT_DOUBLE_EQ(series.back().first, 40.0);
  EXPECT_DOUBLE_EQ(series.front().second, 0.0);
  EXPECT_DOUBLE_EQ(series.back().second, 1.0);
}

}  // namespace
}  // namespace starlab::analysis
