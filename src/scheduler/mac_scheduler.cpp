#include "scheduler/mac_scheduler.hpp"

#include <algorithm>
#include <cmath>

#include "scheduler/stochastic.hpp"

namespace starlab::scheduler {

int MacScheduler::cycle_length(int norad_id, time::SlotIndex slot) const {
  const double u = uniform01(mix_keys(seed_, 0xc7c1eULL,
                                      static_cast<std::uint64_t>(norad_id),
                                      static_cast<std::uint64_t>(slot)));
  const int span = kMaxCycle - kMinCycle + 1;
  return kMinCycle + static_cast<int>(u * span);
}

int MacScheduler::rotation_position(int norad_id, std::uint64_t terminal_key,
                                    time::SlotIndex slot,
                                    Priority priority) const {
  const int cycle = cycle_length(norad_id, slot);
  const std::uint64_t h =
      mix_keys(seed_, terminal_key, static_cast<std::uint64_t>(norad_id),
               static_cast<std::uint64_t>(slot));
  const int base = static_cast<int>(h % static_cast<std::uint64_t>(cycle));
  if (cycle < 2 || priority == Priority::kStandard) return base;
  const int half = cycle / 2;
  if (priority == Priority::kPriority) {
    return base % std::max(1, half);  // front half of the cycle
  }
  return half + base % std::max(1, cycle - half);  // back half
}

double MacScheduler::miss_probability_for(Priority priority) const {
  double p = kMissProbability;
  if (priority == Priority::kPriority) p *= 0.5;
  if (priority == Priority::kBestEffort) p *= 1.5;
  return std::min(p, 0.95);
}

int MacScheduler::band_of_probe(int norad_id, std::uint64_t terminal_key,
                                time::SlotIndex slot, std::uint64_t probe_seq,
                                Priority priority) const {
  const int base = rotation_position(norad_id, terminal_key, slot, priority);

  // Geometric number of missed grants: P(k extra cycles) ~ (1-p) p^k.
  const double miss = miss_probability_for(priority);
  const double u = uniform01(
      mix_keys(seed_ ^ 0xbadbadULL, terminal_key ^ probe_seq,
               static_cast<std::uint64_t>(norad_id),
               static_cast<std::uint64_t>(slot)));
  int extra = 0;
  double tail = miss;
  double acc = 1.0 - miss;
  while (u >= acc && extra < 4) {
    ++extra;
    acc += (1.0 - miss) * tail;
    tail *= miss;
  }
  const int cycle = cycle_length(norad_id, slot);
  return base + extra * cycle;
}

double MacScheduler::queuing_delay_ms(int norad_id, std::uint64_t terminal_key,
                                      time::SlotIndex slot,
                                      std::uint64_t probe_seq,
                                      Priority priority) const {
  const int band = band_of_probe(norad_id, terminal_key, slot, probe_seq, priority);
  const double jitter =
      kIntraBandJitterMs *
      uniform01(mix_keys(seed_ ^ 0x717e4ULL, terminal_key,
                         static_cast<std::uint64_t>(slot), probe_seq));
  return band * kFrameIntervalMs + jitter;
}

}  // namespace starlab::scheduler
