#pragma once

// The fault injectors configured by a FaultPlan.
//
// Every injector is a pure function of (plan seed, entity, counter) via the
// same counter-based splitmix64 hashing the scheduler oracles use, so a
// faulted run replays exactly and two consumers asking about the same
// (terminal, slot) see the same fault. All rates and magnitudes are scaled
// by the plan's global intensity; at intensity 0 every injector is a no-op.

#include <cstdint>
#include <stdexcept>
#include <string>

#include "fault/fault_plan.hpp"
#include "measurement/loss_model.hpp"
#include "measurement/rtt_prober.hpp"
#include "obsmap/obstruction_map.hpp"
#include "time/slot_grid.hpp"

namespace starlab::fault {

/// Drops and corrupts observed obstruction-map frames.
class FrameFaultInjector {
 public:
  explicit FrameFaultInjector(const FaultPlan& plan) : plan_(plan) {}

  /// True when the end-of-slot frame poll for (terminal, slot) fails.
  [[nodiscard]] bool frame_dropped(std::size_t terminal_index,
                                   time::SlotIndex slot) const;

  /// Flip pixels of an observed frame in place (per-pixel Bernoulli at the
  /// scaled bit-flip rate). Returns the number of flipped pixels; 0 leaves
  /// the frame bit-identical.
  std::size_t corrupt(obsmap::ObstructionMap& frame,
                      std::size_t terminal_index, time::SlotIndex slot) const;

 private:
  FaultPlan plan_;
};

/// Removes individual satellites from the usable set for single slots.
class SlotDropoutInjector {
 public:
  explicit SlotDropoutInjector(const FaultPlan& plan) : plan_(plan) {}

  /// True when `norad_id` is unavailable during `slot`.
  [[nodiscard]] bool dropped(int norad_id, time::SlotIndex slot) const;

 private:
  FaultPlan plan_;
};

/// Overlays Gilbert-Elliott burst loss and outlier spikes on an RTT series.
class RttFaultInjector {
 public:
  explicit RttFaultInjector(const FaultPlan& plan) : plan_(plan) {}

  /// The overlay chain implied by the plan: loss_bad == 1, loss_good == 0,
  /// mean Bad dwell == mean_burst_probes, stationary loss == the scaled
  /// extra_loss_rate.
  [[nodiscard]] measurement::GilbertElliottConfig overlay_config() const;

  /// Mark additional (bursty) losses and add spikes, in place. Deterministic
  /// in the plan seed and the series length; a series already marked lost is
  /// left lost.
  void apply(measurement::RttSeries& series) const;

 private:
  FaultPlan plan_;
};

/// Clock step/drift error for a vantage point's local clock.
class ClockFaultInjector {
 public:
  explicit ClockFaultInjector(const FaultPlan& plan) : plan_(plan) {}

  /// Local-minus-true clock offset [s] at a true time: a per-sync-epoch
  /// uniform step in [-step_ms, step_ms] plus linear drift accumulated since
  /// the last sync.
  [[nodiscard]] double offset_sec(double true_unix_sec) const;

  /// Re-timestamp a series through the faulty clock, in place.
  void apply(measurement::RttSeries& series) const;

 private:
  FaultPlan plan_;
};

/// Crashes supervised task attempts (the resilience supervisor's retry and
/// quarantine paths). Keyed by (task, attempt): the same plan crashes the
/// same attempts of the same tasks on every replay, and a task whose first
/// attempt is doomed may still succeed on retry.
class TaskFaultInjector {
 public:
  explicit TaskFaultInjector(const FaultPlan& plan) : plan_(plan) {}

  /// True when `attempt` (1-based) of the task identified by `task_key`
  /// should fail.
  [[nodiscard]] bool fails(std::uint64_t task_key, int attempt) const;

 private:
  FaultPlan plan_;
};

/// Thrown when a WriteKillPoint budget runs out: the simulated process
/// death mid-write. Catch sites treat the writer as gone.
class WriteKilled : public std::runtime_error {
 public:
  explicit WriteKilled(std::uint64_t at_byte)
      : std::runtime_error("write kill-point fired at byte " +
                           std::to_string(at_byte)) {}
};

/// Byte-budget write gate simulating a crash at an exact file offset: the
/// first `kill_after_bytes` bytes offered to grant() pass through, the rest
/// never happen. A durable writer consults the gate before each write and
/// persists exactly the granted prefix before dying, so torn-tail recovery
/// can be exercised at every byte boundary of the journal format.
class WriteKillPoint {
 public:
  explicit WriteKillPoint(std::uint64_t kill_after_bytes)
      : remaining_(kill_after_bytes) {}

  /// How many of `want` bytes may still be written. Decrements the budget;
  /// a return < want means the process dies after writing that prefix (the
  /// caller writes it, then throws WriteKilled).
  [[nodiscard]] std::uint64_t grant(std::uint64_t want) {
    const std::uint64_t granted = want < remaining_ ? want : remaining_;
    remaining_ -= granted;
    granted_ += granted;
    return granted;
  }

  /// Total bytes granted so far (== the kill offset once killed).
  [[nodiscard]] std::uint64_t granted() const { return granted_; }

 private:
  std::uint64_t remaining_;
  std::uint64_t granted_ = 0;
};

}  // namespace starlab::fault
