#pragma once

// Percentile-bootstrap confidence intervals.
//
// The paper reports point estimates (median AOE gap 22.9 deg, sunlit rate
// 72.3 %, ...). Bootstrap CIs quantify how tight those estimates are for a
// given campaign length — which is what tells a user of this library how
// long to measure before trusting a number.

#include <functional>
#include <random>
#include <span>
#include <vector>

namespace starlab::analysis {

struct BootstrapCi {
  double point = 0.0;  ///< statistic on the full sample
  double lo = 0.0;     ///< lower percentile bound
  double hi = 0.0;     ///< upper percentile bound

  [[nodiscard]] bool contains(double v) const { return v >= lo && v <= hi; }
};

/// A statistic over a sample.
using Statistic = std::function<double(std::span<const double>)>;

/// Percentile bootstrap: resample with replacement `resamples` times, take
/// the [alpha/2, 1-alpha/2] percentiles of the statistic's distribution.
/// alpha = 0.05 gives a 95 % CI.
[[nodiscard]] BootstrapCi bootstrap_ci(std::span<const double> sample,
                                       const Statistic& statistic,
                                       std::mt19937_64& rng,
                                       int resamples = 1000,
                                       double alpha = 0.05);

/// Convenience: CI of the median.
[[nodiscard]] BootstrapCi bootstrap_median_ci(std::span<const double> sample,
                                              std::mt19937_64& rng,
                                              int resamples = 1000,
                                              double alpha = 0.05);

/// CI of the *difference of medians* between two samples (the Fig 4 gap):
/// resamples both sides independently.
[[nodiscard]] BootstrapCi bootstrap_median_diff_ci(
    std::span<const double> a, std::span<const double> b, std::mt19937_64& rng,
    int resamples = 1000, double alpha = 0.05);

}  // namespace starlab::analysis
