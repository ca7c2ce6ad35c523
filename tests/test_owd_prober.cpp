#include "measurement/owd_prober.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "test_helpers.hpp"

namespace starlab::measurement {
namespace {

using starlab::testing::max_clock_error_ms;

using starlab::testing::small_scenario;

OwdSeries run_owd(const ClockConfig& clock_cfg, double minutes = 2.0) {
  static const LatencyModel model(small_scenario().catalog(),
                                  small_scenario().mac_scheduler());
  const ClockModel clock(clock_cfg);
  const OwdProber prober(small_scenario().global_scheduler(), model, clock);
  const double t0 =
      small_scenario().grid().slot_start(small_scenario().first_slot());
  return prober.run(small_scenario().terminal(0), t0, t0 + minutes * 60.0);
}

TEST(OwdProber, TrueOwdIsHalfRttScale) {
  const OwdSeries s = run_owd({});
  ASSERT_GT(s.samples.size(), 1000u);
  for (const OwdSample& x : s.samples) {
    EXPECT_GT(x.true_owd_ms, 7.0);
    EXPECT_LT(x.true_owd_ms, 45.0);
  }
}

TEST(OwdProber, UndisciplinedClockSwampsTheSignal) {
  // A free-running clock (no NTP for a day) accumulates tens of ms of
  // offset — bigger than the entire OWD structure under study.
  ClockConfig free_running;
  free_running.sync_interval_sec = 86400.0;
  free_running.drift_ppm = 20.0;
  const OwdSeries s = run_owd(free_running, 5.0);
  EXPECT_GT(max_clock_error_ms(s), 2.0);
}

TEST(OwdProber, NtpDisciplinedClockIsUsable) {
  // The paper's setup: frequent NTP sync keeps the error near the residual.
  ClockConfig ntp;
  ntp.sync_interval_sec = 64.0;
  ntp.residual_offset_ms = 0.3;
  ntp.wander_amplitude_ms = 0.2;
  const OwdSeries s = run_owd(ntp, 5.0);
  EXPECT_LT(max_clock_error_ms(s), 2.5);
}

TEST(OwdProber, DisciplineReducesError) {
  ClockConfig loose;
  loose.sync_interval_sec = 86400.0;
  ClockConfig tight;
  tight.sync_interval_sec = 64.0;
  tight.residual_offset_ms = 0.3;
  tight.wander_amplitude_ms = 0.2;
  EXPECT_LT(max_clock_error_ms(run_owd(tight, 3.0)),
            max_clock_error_ms(run_owd(loose, 3.0)));
}

TEST(OwdProber, SlotStructureSurvivesGoodClock) {
  // With a disciplined clock the 15 s re-allocation structure remains
  // visible in measured OWD: medians of adjacent slots still differ.
  ClockConfig ntp;
  ntp.sync_interval_sec = 64.0;
  ntp.residual_offset_ms = 0.2;
  ntp.wander_amplitude_ms = 0.1;
  const OwdSeries s = run_owd(ntp, 3.0);

  std::map<time::SlotIndex, std::vector<double>> by_slot;
  for (const OwdSample& x : s.samples) {
    by_slot[x.slot].push_back(x.measured_owd_ms);
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  double max_jump = 0.0, prev = 0.0;
  bool have = false;
  for (auto& [slot, vals] : by_slot) {
    const double m = median(std::move(vals));
    if (have) max_jump = std::max(max_jump, std::fabs(m - prev));
    prev = m;
    have = true;
  }
  EXPECT_GT(max_jump, 0.5);
}

}  // namespace
}  // namespace starlab::measurement
