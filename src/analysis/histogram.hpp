#pragma once

// Fixed-bin histograms: the counting side of the §5 analyses (launch-month
// bins, azimuth quadrants, AOE bands).

#include <cstddef>
#include <vector>

namespace starlab::analysis {

class Histogram {
 public:
  /// `num_bins` equal-width bins over [lo, hi); values outside count toward
  /// total() but land in no bin.
  Histogram(double lo, double hi, std::size_t num_bins);

  void add(double value);

  [[nodiscard]] std::size_t num_bins() const { return counts_.size(); }
  [[nodiscard]] std::size_t count(std::size_t bin) const { return counts_[bin]; }
  [[nodiscard]] std::size_t total() const { return total_; }

 private:
  double lo_;
  double hi_;
  double bin_width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace starlab::analysis
