#pragma once

// NTP-disciplined clock-error model.
//
// The paper routinely NTP-synced its vantage points and PoP servers because
// one-way timestamps drift. An undisciplined quartz clock drifts tens of
// ppm; NTP periodically steps/slews it back, producing the classic sawtooth
// offset plus a slow thermal wander. RTTs measured against a *single* clock
// cancel the offset almost entirely — this model quantifies both facts and
// lets the measurement layer synthesize one-way-delay series with realistic
// timestamp error.

#include <cstdint>

namespace starlab::measurement {

struct ClockConfig {
  double drift_ppm = 20.0;        ///< frequency error between NTP corrections
  double sync_interval_sec = 1024.0;  ///< NTP poll/correction cadence
  double residual_offset_ms = 0.5;    ///< offset remaining right after a sync
  double wander_amplitude_ms = 1.5;   ///< slow thermal wander amplitude
  double wander_period_sec = 6.0 * 3600.0;  ///< thermal cycle (~daily HVAC)
};

class ClockModel {
 public:
  explicit ClockModel(ClockConfig config = {}, std::uint64_t seed = 31)
      : config_(config), seed_(seed) {}

  /// Clock offset [ms] (local minus true) at a true time. Piecewise-linear
  /// sawtooth from drift between syncs, plus sinusoidal wander; the
  /// post-sync residual is deterministic per sync epoch.
  [[nodiscard]] double offset_ms(double true_unix_sec) const;

  [[nodiscard]] const ClockConfig& config() const { return config_; }

 private:
  ClockConfig config_;
  std::uint64_t seed_;
};

}  // namespace starlab::measurement
