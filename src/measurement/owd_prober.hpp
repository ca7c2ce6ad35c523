#pragma once

// One-way-delay measurement — and why the paper NTP-synced everything.
//
// iRTT can timestamp in both directions, but a one-way delay (OWD) is
// measured against *two* clocks: the sender's and the receiver's. Any offset
// between them lands directly in the OWD sample, so an undisciplined clock's
// sawtooth (see ClockModel) swamps the few-ms structure the study needs;
// with NTP discipline the residual is sub-ms. RTTs, by contrast, use one
// clock twice and cancel the offset. OwdProber synthesizes both the clean
// and the clock-corrupted series so the effect is demonstrable.

#include <cstdint>
#include <string>
#include <vector>

#include "measurement/clock_model.hpp"
#include "measurement/latency_model.hpp"

namespace starlab::measurement {

struct OwdSample {
  double unix_sec = 0.0;
  double true_owd_ms = 0.0;      ///< uplink one-way delay, perfect clocks
  double measured_owd_ms = 0.0;  ///< with sender-clock error applied
  time::SlotIndex slot = 0;
};

struct OwdSeries {
  std::string terminal;
  std::vector<OwdSample> samples;
};

class OwdProber {
 public:
  /// `clock` models the *sender's* clock; the receiver (PoP server) is
  /// treated as the time reference, as the paper's setup effectively does.
  OwdProber(const scheduler::GlobalScheduler& global, const LatencyModel& model,
            const ClockModel& clock, double interval_ms = 20.0)
      : global_(global), model_(model), clock_(clock),
        interval_ms_(interval_ms) {}

  [[nodiscard]] OwdSeries run(const ground::Terminal& terminal,
                              double start_unix, double end_unix) const;

 private:
  const scheduler::GlobalScheduler& global_;
  const LatencyModel& model_;
  const ClockModel& clock_;
  double interval_ms_;
};

}  // namespace starlab::measurement
