#include "measurement/owd_prober.hpp"

#include <cmath>

namespace starlab::measurement {

OwdSeries OwdProber::run(const ground::Terminal& terminal, double start_unix,
                         double end_unix) const {
  OwdSeries series;
  series.terminal = terminal.name();

  const time::SlotGrid& grid = global_.grid();
  time::SlotIndex cached_slot = 0;
  bool have_cached = false;
  std::optional<scheduler::Allocation> alloc;

  const double step = interval_ms_ / 1000.0;
  const auto num = static_cast<std::uint64_t>(
      std::ceil((end_unix - start_unix) / step - 1e-9));
  for (std::uint64_t i = 0; i < num; ++i) {
    const double t = start_unix + static_cast<double>(i) * step;
    const time::SlotIndex slot = grid.slot_of(t);
    if (!have_cached || slot != cached_slot) {
      alloc = global_.allocate(terminal, slot);
      cached_slot = slot;
      have_cached = true;
    }
    if (!alloc.has_value()) continue;

    OwdSample s;
    s.unix_sec = t;
    s.slot = slot;
    // The uplink one-way delay is half the (symmetric) RTT here: the model
    // is bent-pipe symmetric, which is what the paper's co-located server
    // was designed to approximate.
    s.true_owd_ms = 0.5 * model_.rtt_ms(terminal, *alloc, t, i);
    // Sender timestamps with its (erroneous) clock; receiver is reference:
    // measured = (t_recv_true) - (t_send_true + offset) = true - offset.
    s.measured_owd_ms = s.true_owd_ms - clock_.offset_ms(t);
    series.samples.push_back(s);
  }
  return series;
}

}  // namespace starlab::measurement
