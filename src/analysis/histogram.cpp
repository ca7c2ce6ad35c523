#include "analysis/histogram.hpp"

#include <stdexcept>

namespace starlab::analysis {

Histogram::Histogram(double lo, double hi, std::size_t num_bins)
    : lo_(lo), hi_(hi), counts_(num_bins, 0) {
  if (num_bins == 0) throw std::invalid_argument("histogram needs >= 1 bin");
  if (!(hi > lo)) throw std::invalid_argument("histogram range must be ordered");
  bin_width_ = (hi - lo) / static_cast<double>(num_bins);
}

void Histogram::add(double value) {
  ++total_;
  if (value < lo_ || value >= hi_) return;
  auto bin = static_cast<std::size_t>((value - lo_) / bin_width_);
  if (bin >= counts_.size()) bin = counts_.size() - 1;  // fp edge
  ++counts_[bin];
}

}  // namespace starlab::analysis
