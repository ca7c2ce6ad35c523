#include "analysis/bootstrap.hpp"

#include <gtest/gtest.h>

#include <random>

#include "analysis/stats.hpp"

namespace starlab::analysis {
namespace {

std::vector<double> normal_sample(double mean, double sd, int n,
                                  unsigned seed) {
  std::mt19937 gen(seed);
  std::normal_distribution<double> dist(mean, sd);
  std::vector<double> v(static_cast<std::size_t>(n));
  for (double& x : v) x = dist(gen);
  return v;
}

TEST(Bootstrap, MedianCiContainsTruth) {
  const auto sample = normal_sample(50.0, 5.0, 400, 1);
  std::mt19937_64 rng(2);
  const BootstrapCi ci = bootstrap_median_ci(sample, rng);
  EXPECT_TRUE(ci.contains(50.0)) << "[" << ci.lo << ", " << ci.hi << "]";
  EXPECT_TRUE(ci.contains(ci.point));
  EXPECT_LT(ci.lo, ci.hi);
}

TEST(Bootstrap, CiWidthShrinksWithSampleSize) {
  std::mt19937_64 rng(3);
  const auto small = normal_sample(10.0, 3.0, 50, 4);
  const auto large = normal_sample(10.0, 3.0, 5000, 5);
  const BootstrapCi ci_small = bootstrap_median_ci(small, rng);
  const BootstrapCi ci_large = bootstrap_median_ci(large, rng);
  const double w_small = ci_small.hi - ci_small.lo;
  const double w_large = ci_large.hi - ci_large.lo;
  EXPECT_LT(w_large, w_small);
}

TEST(Bootstrap, WiderAlphaNarrowerInterval) {
  const auto sample = normal_sample(0.0, 1.0, 300, 6);
  std::mt19937_64 rng(7);
  const BootstrapCi ci95 = bootstrap_median_ci(sample, rng, 1500, 0.05);
  std::mt19937_64 rng2(7);
  const BootstrapCi ci50 = bootstrap_median_ci(sample, rng2, 1500, 0.5);
  EXPECT_LT(ci50.hi - ci50.lo, ci95.hi - ci95.lo);
}

TEST(Bootstrap, CustomStatistic) {
  const auto sample = normal_sample(5.0, 2.0, 500, 8);
  std::mt19937_64 rng(9);
  const BootstrapCi ci = bootstrap_ci(
      sample, [](std::span<const double> v) { return mean(v); }, rng);
  EXPECT_TRUE(ci.contains(5.0));
  EXPECT_NEAR(ci.point, 5.0, 0.3);
}

TEST(Bootstrap, MedianDiffCi) {
  // The Fig 4 use case: gap between two medians.
  const auto chosen = normal_sample(58.0, 12.0, 400, 10);
  const auto available = normal_sample(37.0, 12.0, 4000, 11);
  std::mt19937_64 rng(12);
  const BootstrapCi ci = bootstrap_median_diff_ci(chosen, available, rng);
  EXPECT_TRUE(ci.contains(21.0)) << "[" << ci.lo << ", " << ci.hi << "]";
  EXPECT_GT(ci.lo, 15.0);
  EXPECT_LT(ci.hi, 27.0);
}

TEST(Bootstrap, DegenerateInputsAreSafe) {
  std::mt19937_64 rng(13);
  const BootstrapCi empty = bootstrap_median_ci({}, rng);
  EXPECT_DOUBLE_EQ(empty.hi - empty.lo, 0.0);
  const std::vector<double> one{7.0};
  const BootstrapCi single = bootstrap_median_ci(one, rng);
  EXPECT_DOUBLE_EQ(single.point, 7.0);
  EXPECT_DOUBLE_EQ(single.lo, 7.0);
  EXPECT_DOUBLE_EQ(single.hi, 7.0);
}

TEST(Bootstrap, DeterministicGivenRngState) {
  const auto sample = normal_sample(1.0, 1.0, 100, 14);
  std::mt19937_64 a(15), b(15);
  const BootstrapCi ca = bootstrap_median_ci(sample, a);
  const BootstrapCi cb = bootstrap_median_ci(sample, b);
  EXPECT_DOUBLE_EQ(ca.lo, cb.lo);
  EXPECT_DOUBLE_EQ(ca.hi, cb.hi);
}

}  // namespace
}  // namespace starlab::analysis
