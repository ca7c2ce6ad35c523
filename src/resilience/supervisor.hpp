#pragma once

// Supervised task execution: bounded retry, quarantine, and a
// graceful-degradation ladder — the run-forever layer under campaign and
// pipeline execution.
//
// A Supervisor wraps the individual failure-prone units of a long run (slot
// shards, per-terminal pipeline passes). Each unit gets up to max_attempts
// tries, retried immediately: the failures it absorbs are compute-bound (a
// throwing body or a simulated task fault), so waiting between tries buys
// nothing. A unit that exhausts its attempts is quarantined: the run
// continues and the unit degrades to a flagged gap instead of stalling
// everything.
//
// Sustained fault storms move the supervisor down a load-shedding ladder
// driven by the cumulative failure count:
//
//   kNone -> kShedObservability -> kWidenGrid -> kAbstain
//
// Shed observability first (turn off the journal's per-append fsync), then
// halve the slot grid (every 2nd record becomes a flagged gap), then stop
// attempting shards at all. Every decision lands in the event log (and from
// there in RunReport.events) and in the resilience.* metrics.

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "check/thread_annotations.hpp"
#include "fault/injectors.hpp"

namespace starlab::resilience {

/// Load-shedding rungs, in shedding order.
enum class DegradeLevel : int {
  kNone = 0,
  kShedObservability = 1,  ///< turn off the journal's per-append fsync
  kWidenGrid = 2,          ///< compute every 2nd record, flag the rest
  kAbstain = 3,            ///< stop attempting; everything becomes a gap
};

[[nodiscard]] const char* degrade_level_name(DegradeLevel level);

/// Cumulative failed attempts that trip each ladder rung.
inline constexpr std::uint64_t kShedObsFailures = 8;
inline constexpr std::uint64_t kWidenGridFailures = 16;
inline constexpr std::uint64_t kAbstainFailures = 32;

struct SupervisorConfig {
  /// Attempts per task before quarantine (>= 1).
  int max_attempts = 3;

  /// Start the failure counter here instead of 0 — the deterministic way
  /// for tests to exercise a ladder rung without racing a fault storm.
  /// Rungs already tripped by this value are not re-announced in the event
  /// log.
  // starlint:allow(option-reachability): test seam that starts a degraded rung
  std::uint64_t initial_failures = 0;

  /// Fault plan consulted per (task, attempt) to *simulate* task crashes
  /// (exec.task_fail_rate). Real exceptions from the task body are handled
  /// identically; this injector exists so chaos tests can drive storms.
  fault::FaultPlan faults;
};

/// What happened to one supervised task.
struct TaskOutcome {
  bool ok = false;
  bool quarantined = false;
  int attempts = 0;    ///< attempts actually made
  std::string error;   ///< last failure reason ("" when clean)
};

class Supervisor {
 public:
  explicit Supervisor(SupervisorConfig config);

  /// Run `body` under supervision. `task_key` identifies the unit (shard or
  /// terminal index) for fault injection and the event log. The body
  /// receives the degradation level in force when the attempt started.
  /// Thread-safe: the shard runner calls this concurrently from the exec
  /// pool.
  TaskOutcome run(std::uint64_t task_key,
                  const std::function<void(DegradeLevel)>& body);

  /// Current ladder rung (monotone non-decreasing over a supervisor's life).
  [[nodiscard]] DegradeLevel level() const;

  [[nodiscard]] std::uint64_t failures() const {
    return failures_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t retries() const {
    return retries_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t quarantined() const {
    return quarantined_.load(std::memory_order_relaxed);
  }

  /// Chronological decision log (copies under the lock).
  [[nodiscard]] std::vector<std::string> events() const EXCLUDES(mu_);


 private:
  void note(std::string event) EXCLUDES(mu_);
  /// Re-derive the rung for a cumulative failure count.
  [[nodiscard]] DegradeLevel level_for(std::uint64_t failures) const;
  void record_failure(std::uint64_t task_key, int attempt,
                      const std::string& why, bool will_retry);

  SupervisorConfig config_;
  fault::TaskFaultInjector injector_;
  std::atomic<std::uint64_t> failures_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> quarantined_{0};
  mutable check::Mutex mu_;
  std::vector<std::string> events_ GUARDED_BY(mu_);
  int last_noted_level_ GUARDED_BY(mu_) = 0;  ///< dedups ladder events
};

}  // namespace starlab::resilience
