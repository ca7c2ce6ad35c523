#pragma once

// The single monotonic-clock wrapper used by ObsSpan (the library's only
// timer), benches and tests. Promoted out of bench_common so
// instrumentation and benchmarking agree on one time base.

#include <chrono>
#include <cstdint>

namespace starlab::obs {

/// Monotonic nanoseconds since an arbitrary epoch (steady_clock).
[[nodiscard]] inline std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Wall-clock timer for progress notes and coarse section timing.
class Stopwatch {
 public:
  Stopwatch() : start_ns_(monotonic_ns()) {}

  /// Nanoseconds since construction.
  [[nodiscard]] std::uint64_t elapsed_ns() const {
    return monotonic_ns() - start_ns_;
  }

  /// Seconds since construction.
  [[nodiscard]] double seconds() const {
    return static_cast<double>(elapsed_ns()) * 1e-9;
  }

 private:
  std::uint64_t start_ns_;
};

}  // namespace starlab::obs
