#include "measurement/changepoint.hpp"

#include <algorithm>
#include <cmath>

namespace starlab::measurement {

namespace {

// Epoch search: candidate periods [s] and the distance [s] within which a
// change point fits a grid boundary.
constexpr double kMinPeriodSec = 5.0;
constexpr double kMaxPeriodSec = 40.0;
constexpr double kPeriodStepSec = 0.5;
constexpr double kToleranceSec = 1.0;

// Change detection (see detect_change_points).
constexpr double kBucketSec = 0.5;
constexpr std::size_t kWindowBuckets = 4;
constexpr double kThresholdMs = 1.2;
constexpr double kSummaryQuantile = 0.2;

double quantile_of(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  auto idx = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  if (idx >= v.size()) idx = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

double median_of(std::vector<double> v) { return quantile_of(std::move(v), 0.5); }

}  // namespace

std::vector<ChangePoint> detect_change_points(const RttSeries& series) {
  std::vector<ChangePoint> out;
  const std::vector<RttSample> recv = series.received();
  if (recv.size() < 8) return out;

  // 1. Robust per-bucket summary.
  const double t0 = recv.front().unix_sec;
  const double t1 = recv.back().unix_sec;
  const auto num_buckets =
      static_cast<std::size_t>((t1 - t0) / kBucketSec) + 1;
  std::vector<std::vector<double>> bucket_vals(num_buckets);
  for (const RttSample& s : recv) {
    const auto b = static_cast<std::size_t>((s.unix_sec - t0) / kBucketSec);
    bucket_vals[std::min(b, num_buckets - 1)].push_back(s.rtt_ms);
  }
  std::vector<double> medians(num_buckets);
  for (std::size_t i = 0; i < num_buckets; ++i) {
    medians[i] =
        quantile_of(std::move(bucket_vals[i]), kSummaryQuantile);
  }

  // 2. Median-shift scan: compare the medians of the kWindowBuckets buckets
  //    on each side of every bucket boundary.
  const std::size_t w = kWindowBuckets;
  std::vector<ChangePoint> candidates;
  for (std::size_t edge = w; edge + w <= num_buckets; ++edge) {
    std::vector<double> left, right;
    for (std::size_t i = edge - w; i < edge; ++i) {
      if (!std::isnan(medians[i])) left.push_back(medians[i]);
    }
    for (std::size_t i = edge; i < edge + w; ++i) {
      if (!std::isnan(medians[i])) right.push_back(medians[i]);
    }
    if (left.empty() || right.empty()) continue;
    const double shift = std::fabs(median_of(right) - median_of(left));
    if (shift >= kThresholdMs) {
      candidates.push_back(
          {t0 + static_cast<double>(edge) * kBucketSec, shift});
    }
  }

  // 3. Non-maximum suppression: within any kMinChangeSeparationSec keep the
  //    strongest shift.
  std::sort(candidates.begin(), candidates.end(),
            [](const ChangePoint& a, const ChangePoint& b) {
              return a.magnitude_ms > b.magnitude_ms;
            });
  for (const ChangePoint& c : candidates) {
    const bool close_to_kept =
        std::any_of(out.begin(), out.end(), [&](const ChangePoint& k) {
          return std::fabs(k.unix_sec - c.unix_sec) < kMinChangeSeparationSec;
        });
    if (!close_to_kept) out.push_back(c);
  }
  std::sort(out.begin(), out.end(),
            [](const ChangePoint& a, const ChangePoint& b) {
              return a.unix_sec < b.unix_sec;
            });
  return out;
}

EpochEstimate estimate_epoch(const std::vector<ChangePoint>& change_points) {
  EpochEstimate best;
  if (change_points.size() < 3) return best;

  const double span_begin = change_points.front().unix_sec;
  const double span_end = change_points.back().unix_sec;

  for (double period = kMinPeriodSec; period <= kMaxPeriodSec;
       period += kPeriodStepSec) {
    // Scan candidate offsets at half-tolerance resolution.
    for (double offset = 0.0; offset < period; offset += kToleranceSec / 2) {
      std::size_t matched_changes = 0;
      for (const ChangePoint& c : change_points) {
        double phase = std::fmod(c.unix_sec - offset, period);
        if (phase < 0.0) phase += period;
        const double dist = std::min(phase, period - phase);
        if (dist <= kToleranceSec) ++matched_changes;
      }

      // Precision: how many predicted boundaries in the observed span have a
      // change point nearby?
      std::size_t boundaries = 0, matched_boundaries = 0;
      const double first_k = std::ceil((span_begin - offset) / period);
      for (double k = first_k;; k += 1.0) {
        const double t = offset + k * period;
        if (t > span_end) break;
        ++boundaries;
        for (const ChangePoint& c : change_points) {
          if (std::fabs(c.unix_sec - t) <= kToleranceSec) {
            ++matched_boundaries;
            break;
          }
        }
      }
      if (boundaries == 0) continue;

      const double recall = static_cast<double>(matched_changes) /
                            static_cast<double>(change_points.size());
      const double precision = static_cast<double>(matched_boundaries) /
                               static_cast<double>(boundaries);
      if (precision + recall <= 0.0) continue;
      const double f1 = 2.0 * precision * recall / (precision + recall);

      if (f1 > best.support) {
        best.support = f1;
        best.period_sec = period;
        // Normalize the offset into the minute (the paper reports ":12").
        best.offset_sec = std::fmod(offset, period);
      }
    }
  }

  // Express the offset within the minute when the period divides 60 s, which
  // matches the paper's ":12/:27/:42/:57" convention.
  if (best.period_sec > 0.0 && std::fmod(60.0, best.period_sec) < 1e-9) {
    // offset within the minute == offset within the period for such grids.
    best.offset_sec = std::fmod(best.offset_sec, best.period_sec);
  }
  return best;
}

}  // namespace starlab::measurement
