#include "fault/injectors.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "scheduler/stochastic.hpp"

namespace starlab::fault {

namespace {

// Per-injector key-domain tags: keeps the hash streams of the different
// injectors (and of the scheduler oracles, which share the same mixer)
// disjoint even under one seed.
constexpr std::uint64_t kTagFrameDrop = 0xFA01;
constexpr std::uint64_t kTagBitFlip = 0xFA02;
constexpr std::uint64_t kTagDropout = 0xFA03;
constexpr std::uint64_t kTagSpike = 0xFA04;
constexpr std::uint64_t kTagClockStep = 0xFA05;
constexpr std::uint64_t kTagGeSeed = 0xFA06;
constexpr std::uint64_t kTagTaskFail = 0xFA08;

double draw(std::uint64_t seed, std::uint64_t tag, std::uint64_t a,
            std::uint64_t b = 0) {
  return scheduler::uniform01(scheduler::mix_keys(seed, tag, a, b));
}

}  // namespace

bool FrameFaultInjector::frame_dropped(std::size_t terminal_index,
                                       time::SlotIndex slot) const {
  const double rate = plan_.frame.drop_rate * plan_.intensity;
  if (rate <= 0.0) return false;
  return draw(plan_.seed, kTagFrameDrop, terminal_index,
              static_cast<std::uint64_t>(slot)) < rate;
}

std::size_t FrameFaultInjector::corrupt(obsmap::ObstructionMap& frame,
                                        std::size_t terminal_index,
                                        time::SlotIndex slot) const {
  const double rate = plan_.frame.bit_flip_rate * plan_.intensity;
  if (rate <= 0.0) return 0;
  std::size_t flipped = 0;
  const std::uint64_t frame_key = scheduler::mix_keys(
      plan_.seed, kTagBitFlip, terminal_index, static_cast<std::uint64_t>(slot));
  for (int y = 0; y < obsmap::ObstructionMap::kSize; ++y) {
    for (int x = 0; x < obsmap::ObstructionMap::kSize; ++x) {
      const auto pixel_index = static_cast<std::uint64_t>(
          y * obsmap::ObstructionMap::kSize + x);
      if (scheduler::uniform01(scheduler::mix_keys(frame_key, pixel_index)) <
          rate) {
        frame.set(x, y, !frame.get(x, y));
        ++flipped;
      }
    }
  }
  return flipped;
}

bool TaskFaultInjector::fails(std::uint64_t task_key, int attempt) const {
  const double rate = plan_.exec.task_fail_rate * plan_.intensity;
  if (rate <= 0.0) return false;
  return draw(plan_.seed, kTagTaskFail, task_key,
              static_cast<std::uint64_t>(attempt)) < rate;
}

bool SlotDropoutInjector::dropped(int norad_id, time::SlotIndex slot) const {
  const double rate = plan_.dropout.rate * plan_.intensity;
  if (rate <= 0.0) return false;
  return draw(plan_.seed, kTagDropout, static_cast<std::uint64_t>(norad_id),
              static_cast<std::uint64_t>(slot)) < rate;
}

measurement::GilbertElliottConfig RttFaultInjector::overlay_config() const {
  // Bad state loses everything, Good state nothing; the dwell time in Bad
  // sets the burst length and the Good->Bad rate is solved so the stationary
  // loss equals the requested marginal rate.
  measurement::GilbertElliottConfig cfg;
  cfg.loss_bad = 1.0;
  cfg.loss_good = 0.0;
  const double mean_burst = std::max(1.0, plan_.rtt.mean_burst_probes);
  cfg.p_bad_to_good = 1.0 / mean_burst;
  const double target =
      std::clamp(plan_.rtt.extra_loss_rate * plan_.intensity, 0.0, 0.95);
  cfg.p_good_to_bad =
      target <= 0.0 ? 0.0 : cfg.p_bad_to_good * target / (1.0 - target);
  return cfg;
}

void RttFaultInjector::apply(measurement::RttSeries& series) const {
  const double loss = plan_.rtt.extra_loss_rate * plan_.intensity;
  const double spike_rate = plan_.rtt.spike_rate * plan_.intensity;
  if (loss <= 0.0 && spike_rate <= 0.0) return;

  measurement::GilbertElliott overlay(
      overlay_config(), scheduler::mix_keys(plan_.seed, kTagGeSeed));
  const double spike_ms = plan_.rtt.spike_ms * plan_.intensity;
  for (std::size_t i = 0; i < series.samples.size(); ++i) {
    measurement::RttSample& s = series.samples[i];
    if (loss > 0.0 && overlay.step() && !s.lost) {
      s.lost = true;
      s.rtt_ms = 0.0;
    }
    if (!s.lost && spike_rate > 0.0 &&
        draw(plan_.seed, kTagSpike, i) < spike_rate) {
      s.rtt_ms += spike_ms;
    }
  }
}

double ClockFaultInjector::offset_sec(double true_unix_sec) const {
  const double step_sec = plan_.clock.step_ms * plan_.intensity / 1000.0;
  const double drift = plan_.clock.drift_ppm * plan_.intensity * 1e-6;
  if (step_sec == 0.0 && drift == 0.0) return 0.0;
  const double interval = std::max(1.0, plan_.clock.step_interval_sec);
  const double epoch = std::floor(true_unix_sec / interval);
  const double u =
      draw(plan_.seed, kTagClockStep,
           static_cast<std::uint64_t>(static_cast<std::int64_t>(epoch)));
  const double since_sync = true_unix_sec - epoch * interval;
  return step_sec * (2.0 * u - 1.0) + drift * since_sync;
}

void ClockFaultInjector::apply(measurement::RttSeries& series) const {
  if (plan_.clock.step_ms * plan_.intensity == 0.0 &&
      plan_.clock.drift_ppm * plan_.intensity == 0.0) {
    return;
  }
  for (measurement::RttSample& s : series.samples) {
    s.unix_sec += offset_sec(s.unix_sec);
  }
}

}  // namespace starlab::fault
