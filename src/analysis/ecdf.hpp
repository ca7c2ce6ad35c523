#pragma once

// Empirical cumulative distribution functions — the lingua franca of the
// paper's Figures 4, 5 and 7 (available vs. selected satellite CDFs).

#include <span>
#include <vector>

namespace starlab::analysis {

class Ecdf {
 public:
  Ecdf() = default;
  explicit Ecdf(std::span<const double> samples);

  /// P(X <= x) under the empirical distribution; 0 for an empty ECDF.
  [[nodiscard]] double operator()(double x) const;

  [[nodiscard]] std::size_t size() const { return sorted_.size(); }
  [[nodiscard]] bool empty() const { return sorted_.empty(); }

  /// Evaluate at evenly spaced points across [lo, hi] — one printable
  /// figure series.
  [[nodiscard]] std::vector<std::pair<double, double>> series(
      double lo, double hi, int points) const;

 private:
  std::vector<double> sorted_;
};

}  // namespace starlab::analysis
