#include "measurement/clock_model.hpp"

#include <cmath>

#include "scheduler/stochastic.hpp"

namespace starlab::measurement {

double ClockModel::offset_ms(double true_unix_sec) const {
  // Which sync epoch are we in, and how far into it?
  const double epoch_f = std::floor(true_unix_sec / config_.sync_interval_sec);
  const double into = true_unix_sec - epoch_f * config_.sync_interval_sec;

  // Deterministic residual right after this epoch's correction, in
  // [-residual, +residual].
  const auto epoch = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(epoch_f) + (1LL << 40));
  const double u =
      scheduler::uniform01(scheduler::mix_keys(seed_, 0xc10cULL, epoch));
  const double residual = (2.0 * u - 1.0) * config_.residual_offset_ms;

  // Drift accumulates linearly until the next correction. The per-epoch
  // drift sign/magnitude wanders a little too.
  const double v =
      scheduler::uniform01(scheduler::mix_keys(seed_, 0xd41f7ULL, epoch));
  const double ppm = config_.drift_ppm * (0.5 + v);  // 0.5x..1.5x nominal
  const double drift_ms = ppm * 1e-6 * into * 1000.0;

  // Slow thermal wander, continuous across epochs.
  const double wander =
      config_.wander_amplitude_ms *
      std::sin(2.0 * M_PI * true_unix_sec / config_.wander_period_sec);

  return residual + drift_ms + wander;
}

}  // namespace starlab::measurement
