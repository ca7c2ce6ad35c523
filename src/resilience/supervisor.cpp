#include "resilience/supervisor.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"

namespace starlab::resilience {

namespace {

/// Pre-registered resilience metrics (one-time registration, lock-free).
struct ResilienceMetrics {
  obs::Counter retries, quarantined, failures;
  obs::Gauge degrade_level;

  static const ResilienceMetrics& get() {
    static const ResilienceMetrics m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
      ResilienceMetrics x;
      x.retries = reg.counter("starlab_resilience_retries_total",
                              "Supervised task attempts retried");
      x.quarantined = reg.counter("starlab_resilience_quarantined_total",
                                  "Supervised tasks quarantined after "
                                  "exhausting their attempts");
      x.failures = reg.counter("starlab_resilience_failures_total",
                               "Supervised task attempts that failed");
      x.degrade_level = reg.gauge("starlab_resilience_degrade_level",
                                  "Current load-shedding rung (0=none, "
                                  "1=shed observability, 2=widen grid, "
                                  "3=abstain)");
      return x;
    }();
    return m;
  }
};

}  // namespace

const char* degrade_level_name(DegradeLevel level) {
  switch (level) {
    case DegradeLevel::kNone: return "none";
    case DegradeLevel::kShedObservability: return "shed_observability";
    case DegradeLevel::kWidenGrid: return "widen_grid";
    case DegradeLevel::kAbstain: return "abstain";
  }
  return "unknown";
}

Supervisor::Supervisor(SupervisorConfig config)
    : config_(std::move(config)), injector_(config_.faults) {
  if (config_.max_attempts < 1) config_.max_attempts = 1;
  failures_.store(config_.initial_failures, std::memory_order_relaxed);
  last_noted_level_ =
      static_cast<int>(level_for(config_.initial_failures));
}

DegradeLevel Supervisor::level_for(std::uint64_t failures) const {
  if (failures >= kAbstainFailures) return DegradeLevel::kAbstain;
  if (failures >= kWidenGridFailures) return DegradeLevel::kWidenGrid;
  if (failures >= kShedObsFailures) return DegradeLevel::kShedObservability;
  return DegradeLevel::kNone;
}

DegradeLevel Supervisor::level() const {
  return level_for(failures());
}

std::vector<std::string> Supervisor::events() const {
  const check::MutexLock lock(mu_);
  return events_;
}

void Supervisor::note(std::string event) {
  const check::MutexLock lock(mu_);
  events_.push_back(std::move(event));
}

void Supervisor::record_failure(std::uint64_t task_key, int attempt,
                                const std::string& why, bool will_retry) {
  const std::uint64_t count =
      failures_.fetch_add(1, std::memory_order_relaxed) + 1;
  ResilienceMetrics::get().failures.add();
  if (will_retry) {
    retries_.fetch_add(1, std::memory_order_relaxed);
    ResilienceMetrics::get().retries.add();
  }
  {
    const check::MutexLock lock(mu_);
    events_.push_back((will_retry ? "retry task=" : "fail task=") +
                      std::to_string(task_key) +
                      " attempt=" + std::to_string(attempt) + ": " + why);
    const DegradeLevel now = level_for(count);
    if (static_cast<int>(now) > last_noted_level_) {
      last_noted_level_ = static_cast<int>(now);
      events_.push_back(std::string("degrade level=") +
                        degrade_level_name(now) +
                        " failures=" + std::to_string(count));
      ResilienceMetrics::get().degrade_level.set(
          static_cast<double>(last_noted_level_));
    }
  }
}

TaskOutcome Supervisor::run(std::uint64_t task_key,
                             const std::function<void(DegradeLevel)>& body) {
  TaskOutcome out;
  for (int attempt = 1; attempt <= config_.max_attempts; ++attempt) {
    out.attempts = attempt;
    const DegradeLevel at_start = level();
    try {
      if (injector_.fails(task_key, attempt)) {
        throw std::runtime_error("injected task fault");
      }
      body(at_start);
      out.ok = true;
      out.error.clear();
      return out;
    } catch (const std::exception& e) {
      out.error = e.what();
    }
    record_failure(task_key, attempt, out.error,
                   attempt < config_.max_attempts);
  }
  out.quarantined = true;
  quarantined_.fetch_add(1, std::memory_order_relaxed);
  ResilienceMetrics::get().quarantined.add();
  note("quarantine task=" + std::to_string(task_key) + " after " +
       std::to_string(out.attempts) + " attempts: " + out.error);
  return out;
}

}  // namespace starlab::resilience
