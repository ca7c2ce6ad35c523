#include "analysis/ecdf.hpp"

#include <algorithm>

namespace starlab::analysis {

Ecdf::Ecdf(std::span<const double> samples)
    : sorted_(samples.begin(), samples.end()) {
  std::sort(sorted_.begin(), sorted_.end());
}

double Ecdf::operator()(double x) const {
  if (sorted_.empty()) return 0.0;
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

std::vector<std::pair<double, double>> Ecdf::series(double lo, double hi,
                                                    int points) const {
  std::vector<std::pair<double, double>> out;
  if (points < 2) return out;
  out.reserve(static_cast<std::size_t>(points));
  for (int i = 0; i < points; ++i) {
    const double x = lo + (hi - lo) * i / (points - 1);
    out.emplace_back(x, (*this)(x));
  }
  return out;
}

}  // namespace starlab::analysis
