#include "match/dtw.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "check/contracts.hpp"
#include "check/hotpath.hpp"

namespace starlab::match {

namespace {

constexpr double kInf = 1e300;

/// The two DP rows, reused across calls. DTW scoring runs once per
/// (observed window, candidate satellite) pair inside the matching loop, so
/// a fresh pair of vectors per call dominated the small-window cost; the
/// rows only ever grow to the longest trajectory seen on this thread.
struct DtwScratch {
  std::vector<double> prev;
  std::vector<double> curr;
};

}  // namespace

STARLAB_HOTPATH double local_cost(const Point2& a, const Point2& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

STARLAB_HOTPATH double dtw_distance(std::span<const Point2> a,
                                    std::span<const Point2> b, int band) {
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  if (n == 0 || m == 0) return kInf;

  // Rolling two-row dynamic program over the (n+1) x (m+1) grid.
  thread_local DtwScratch scratch;
  if (scratch.prev.size() < m + 1) {
    scratch.prev.resize(m + 1);  // starlint:allow(hotpath-alloc) amortized
    scratch.curr.resize(m + 1);  // starlint:allow(hotpath-alloc) amortized
  }
  std::vector<double>& prev = scratch.prev;
  std::vector<double>& curr = scratch.curr;
  std::fill(prev.begin(), prev.begin() + static_cast<std::ptrdiff_t>(m + 1),
            kInf);
  prev[0] = 0.0;

  const double slope = static_cast<double>(m) / static_cast<double>(n);

  for (std::size_t i = 1; i <= n; ++i) {
    std::fill(curr.begin(),
              curr.begin() + static_cast<std::ptrdiff_t>(m + 1), kInf);

    std::size_t j_lo = 1, j_hi = m;
    if (band >= 0) {
      // Sakoe-Chiba window around the slope-normalized diagonal.
      const double center = static_cast<double>(i) * slope;
      j_lo = static_cast<std::size_t>(
          std::max(1.0, std::ceil(center - band)));
      j_hi = static_cast<std::size_t>(
          std::min(static_cast<double>(m), std::floor(center + band)));
      if (j_lo > j_hi) return kInf;  // infeasible band
    }

    for (std::size_t j = j_lo; j <= j_hi; ++j) {
      const double cost = local_cost(a[i - 1], b[j - 1]);
      const double best =
          std::min({prev[j], curr[j - 1], prev[j - 1]});
      if (best >= kInf) continue;
      curr[j] = cost + best;
    }
    std::swap(prev, curr);
  }
  // The warping path only accumulates non-negative local costs, so a
  // feasible alignment can never report a negative distance.
  STARLAB_ENSURE(prev[m] >= 0.0, "negative DTW distance");
  return prev[m];
}

STARLAB_HOTPATH double dtw_distance_normalized(std::span<const Point2> a,
                                               std::span<const Point2> b,
                                               int band) {
  const double d = dtw_distance(a, b, band);
  if (d >= kInf) return d;
  return d / static_cast<double>(a.size() + b.size());
}

double dtw_lower_bound(std::span<const Point2> a, Point2 center,
                       double radius) {
  if (a.empty()) return 0.0;
  double nearest_sq = kInf;
  for (const Point2& p : a) {
    nearest_sq = std::min(nearest_sq, local_cost(p, center));
  }
  const double gap = std::sqrt(nearest_sq) - radius;
  return gap > 0.0 ? 0.5 * gap * gap : 0.0;
}

}  // namespace starlab::match
