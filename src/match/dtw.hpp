#pragma once

// Dynamic Time Warping between planar point sequences.
//
// The paper matches an isolated obstruction-map trajectory against the
// TLE-propagated paths of every candidate satellite by DTW distance, after
// converting both from polar (AOE/azimuth) to Cartesian coordinates. The
// full O(n*m) dynamic program is implemented along with the Sakoe-Chiba
// banded variant for the performance-sensitive sweeps.

#include <span>
#include <vector>

namespace starlab::match {

struct Point2 {
  double x = 0.0;
  double y = 0.0;
};

/// Squared-Euclidean local cost (monotone in Euclidean; cheaper, same argmin).
[[nodiscard]] double local_cost(const Point2& a, const Point2& b);

/// DTW distance with the standard step pattern (match/insert/delete).
/// `band` restricts |i - j| to a Sakoe-Chiba window of that half-width
/// (after slope normalization for unequal lengths); band < 0 means
/// unconstrained. Returns +inf-like 1e300 for empty inputs or an infeasible
/// band.
[[nodiscard]] double dtw_distance(std::span<const Point2> a,
                                  std::span<const Point2> b, int band = -1);

/// DTW distance normalized by the warping-path length (so trajectories of
/// different sample counts compare fairly).
[[nodiscard]] double dtw_distance_normalized(std::span<const Point2> a,
                                             std::span<const Point2> b,
                                             int band = -1);

/// A lower bound on dtw_distance_normalized(a, b, band), at any band, that
/// holds for every `b` whose points all lie within `radius` of `center`.
/// With d the distance from `center` to the nearest point of `a`, every
/// local cost on the warping path is at least (d - radius)^2, and the path
/// has at least max(|a|, |b|) >= (|a| + |b|) / 2 steps, so the normalized
/// distance is at least max(0, d - radius)^2 / 2. 0 for an empty `a`.
[[nodiscard]] double dtw_lower_bound(std::span<const Point2> a, Point2 center,
                                     double radius);

}  // namespace starlab::match
