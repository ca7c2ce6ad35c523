#pragma once

// Cooperative cancellation for supervised tasks.
//
// The pool never kills threads: a long-running task (a campaign slot shard,
// a pipeline pass) is handed a CancelToken and polls it at its natural
// checkpoints — once per slot is plenty. The token trips either explicitly
// (cancel()) or when an armed monotonic deadline passes, and check() turns
// a tripped token into a TaskCancelled exception that unwinds the task
// through the pool's normal exception propagation. Header-only so layers
// below exec's .cpp (and tests) can use it without new link edges.

#include <atomic>
#include <cstdint>
#include <stdexcept>

#include "obs/clock.hpp"

namespace starlab::exec {

/// Thrown by CancelToken::check() when the task should stop. Derives from
/// std::runtime_error so unaware catch sites treat it as an ordinary task
/// failure; the supervisor distinguishes it by type to report "deadline"
/// instead of "error".
class TaskCancelled : public std::runtime_error {
 public:
  explicit TaskCancelled(const char* why = "task cancelled")
      : std::runtime_error(why) {}
};

class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Trip the token explicitly (idempotent, thread-safe).
  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// Arm a watchdog deadline at an absolute obs::monotonic_ns() instant;
  /// 0 disarms. The token trips once the clock passes it.
  void arm_deadline(std::uint64_t deadline_monotonic_ns) {
    deadline_ns_.store(deadline_monotonic_ns, std::memory_order_relaxed);
  }

  /// Arm the watchdog `seconds` from now; <= 0 disarms.
  void arm_deadline_in(double seconds) {
    arm_deadline(seconds > 0.0
                     ? obs::monotonic_ns() +
                           static_cast<std::uint64_t>(seconds * 1e9)
                     : 0);
  }

  [[nodiscard]] bool deadline_expired() const {
    const std::uint64_t d = deadline_ns_.load(std::memory_order_relaxed);
    return d != 0 && obs::monotonic_ns() >= d;
  }

  /// Throw TaskCancelled when tripped; the polling point for task bodies.
  void check() const {
    if (cancelled_.load(std::memory_order_relaxed)) {
      throw TaskCancelled("task cancelled");
    }
    if (deadline_expired()) throw TaskCancelled("task deadline expired");
  }

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<std::uint64_t> deadline_ns_{0};  ///< 0: no deadline armed
};

}  // namespace starlab::exec
