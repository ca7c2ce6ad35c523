#include "measurement/throughput.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "rf/link_budget.hpp"
#include "scheduler/stochastic.hpp"

namespace starlab::measurement {

namespace {

constexpr double kOfferedMbps = 50.0;  ///< iPerf3 target rate
constexpr double kSampleIntervalSec = 1.0;
constexpr double kEfficiency = 0.65;     ///< modem efficiency vs Shannon
constexpr double kNoiseFraction = 0.05;  ///< multiplicative goodput jitter

}  // namespace

double ThroughputSeries::mean_goodput_mbps() const {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const ThroughputSample& s : samples) sum += s.goodput_mbps;
  return sum / static_cast<double>(samples.size());
}

double ThroughputSeries::saturation_fraction() const {
  if (samples.empty()) return 0.0;
  std::size_t n = 0;
  for (const ThroughputSample& s : samples) {
    if (s.saturated()) ++n;
  }
  return static_cast<double>(n) / static_cast<double>(samples.size());
}

double ThroughputProber::capacity_share_mbps(
    const ground::Terminal& terminal, const scheduler::Allocation& allocation,
    double unix_sec) const {
  (void)unix_sec;
  const double link_capacity =
      rf::shannon_capacity_mbps(allocation.look.range(), kEfficiency);

  // Frame cycle: the beam is time-shared across `cycle` terminals.
  const int cycle =
      mac_.cycle_length(allocation.norad_id, allocation.slot);

  // Background load eats into what the satellite will grant.
  const double load =
      global_.satellite_load(allocation.norad_id, allocation.slot);

  (void)terminal;
  return link_capacity / cycle * (1.0 - 0.5 * load);
}

ThroughputSeries ThroughputProber::run(const ground::Terminal& terminal,
                                       double start_unix,
                                       double end_unix) const {
  ThroughputSeries series;
  series.terminal = terminal.name();

  const time::SlotGrid& grid = global_.grid();
  const std::uint64_t tkey = std::hash<std::string>{}(terminal.name());

  time::SlotIndex cached_slot = 0;
  bool have_cached = false;
  std::optional<scheduler::Allocation> alloc;

  std::uint64_t seq = 0;
  const auto num_samples = static_cast<std::uint64_t>(std::ceil(
      (end_unix - start_unix) / kSampleIntervalSec - 1e-9));
  for (std::uint64_t i = 0; i < num_samples; ++i, ++seq) {
    const double t = start_unix + static_cast<double>(i) * kSampleIntervalSec;
    const time::SlotIndex slot = grid.slot_of(t);
    if (!have_cached || slot != cached_slot) {
      alloc = global_.allocate(terminal, slot);
      cached_slot = slot;
      have_cached = true;
    }

    ThroughputSample s;
    s.unix_sec = t;
    s.slot = slot;
    s.offered_mbps = kOfferedMbps;
    if (alloc.has_value()) {
      const double share = capacity_share_mbps(terminal, *alloc, t);
      const double jitter =
          1.0 + kNoiseFraction *
                    (2.0 * scheduler::uniform01(scheduler::mix_keys(
                               seed_, tkey, static_cast<std::uint64_t>(slot),
                               seq)) -
                     1.0);
      s.capacity_mbps = share * jitter;
      s.goodput_mbps = std::min(s.offered_mbps, std::max(0.0, s.capacity_mbps));
    }
    series.samples.push_back(s);
  }
  return series;
}

}  // namespace starlab::measurement
