#include "measurement/rtt_prober.hpp"

#include <cmath>

namespace starlab::measurement {

std::vector<RttSample> RttSeries::received() const {
  std::vector<RttSample> out;
  out.reserve(samples.size());
  for (const RttSample& s : samples) {
    if (!s.lost) out.push_back(s);
  }
  return out;
}

double RttSeries::loss_rate() const {
  if (samples.empty()) return 0.0;
  std::size_t lost = 0;
  for (const RttSample& s : samples) {
    if (s.lost) ++lost;
  }
  return static_cast<double>(lost) / static_cast<double>(samples.size());
}

RttSeries RttProber::run(const ground::Terminal& terminal, double start_unix,
                         double end_unix) const {
  RttSeries series;
  series.terminal = terminal.name();

  const time::SlotGrid& grid = global_.grid();

  // Per-slot allocation cache: the expensive oracle runs once per slot, not
  // once per probe.
  time::SlotIndex cached_slot = 0;
  bool have_cached = false;
  std::optional<scheduler::Allocation> cached_alloc;

  // Integer probe index avoids floating-point drift in both the timestamps
  // and the sample count.
  const double step = kProbeIntervalMs / 1000.0;
  const auto num_probes = static_cast<std::uint64_t>(
      std::ceil((end_unix - start_unix) / step - 1e-9));
  for (std::uint64_t probe_seq = 0; probe_seq < num_probes; ++probe_seq) {
    const double t = start_unix + static_cast<double>(probe_seq) * step;
    const time::SlotIndex slot = grid.slot_of(t);
    if (!have_cached || slot != cached_slot) {
      cached_alloc = global_.allocate(terminal, slot);
      cached_slot = slot;
      have_cached = true;
    }

    RttSample s;
    s.unix_sec = t;
    s.slot = slot;
    if (!cached_alloc.has_value()) {
      s.lost = true;  // no serving satellite: the probe vanishes
    } else {
      s.lost = model_.lost(terminal, *cached_alloc, probe_seq);
      if (!s.lost) s.rtt_ms = model_.rtt_ms(terminal, *cached_alloc, t, probe_seq);
    }
    series.samples.push_back(s);
  }
  return series;
}

}  // namespace starlab::measurement
