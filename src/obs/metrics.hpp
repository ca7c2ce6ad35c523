#pragma once

// Lock-cheap metrics registry. Instrumentation sites pre-register handles
// once (a mutex-guarded name lookup) and then record through them lock-free:
// a counter add is one relaxed atomic fetch_add, gated on the process-wide
// obs::Config so the default-off cost is a single relaxed load. The JSON
// export walks the registry under the registration mutex, which the hot path
// never takes.

#include <atomic>
#include <cmath>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "check/thread_annotations.hpp"
#include "obs/config.hpp"

namespace starlab::obs {

class MetricsRegistry;

namespace detail {

struct CounterCell {
  std::string name;
  std::string help;
  std::atomic<std::uint64_t> value{0};
};

struct GaugeCell {
  std::string name;
  std::string help;
  std::atomic<double> value{0.0};
};

struct HistogramCell {
  std::string name;
  std::string help;
  std::vector<double> upper_bounds;  ///< ascending, finite; +Inf is implicit
  /// Per-bucket counts, size upper_bounds.size() + 1 (last = overflow).
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets;
  std::atomic<std::uint64_t> count{0};
  std::atomic<double> sum{0.0};
};

}  // namespace detail

/// Monotone event counter handle. Cheap to copy; never outlives its
/// registry (registries live for the process in practice).
class Counter {
 public:
  Counter() = default;

  void add(std::uint64_t n = 1) const {
    if (cell_ == nullptr || !metrics_enabled()) return;
    cell_->value.fetch_add(n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const {
    return cell_ == nullptr ? 0 : cell_->value.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  explicit Counter(detail::CounterCell* cell) : cell_(cell) {}
  detail::CounterCell* cell_ = nullptr;
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  Gauge() = default;

  void set(double v) const {
    if (cell_ == nullptr || !metrics_enabled()) return;
    cell_->value.store(v, std::memory_order_relaxed);
  }

  [[nodiscard]] double value() const {
    return cell_ == nullptr ? 0.0
                            : cell_->value.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  explicit Gauge(detail::GaugeCell* cell) : cell_(cell) {}
  detail::GaugeCell* cell_ = nullptr;
};

/// Fixed-bucket histogram. Buckets are upper bounds (Prometheus `le`
/// semantics: a value equal to a bound lands in that bound's bucket), with
/// an implicit +Inf overflow bucket.
class Histogram {
 public:
  Histogram() = default;

  /// Non-finite observations are rejected: a single NaN would otherwise
  /// poison `sum` forever, and ±Inf would land in a bucket while making the
  /// mean meaningless.
  void observe(double v) const {
    if (cell_ == nullptr || !metrics_enabled()) return;
    if (!std::isfinite(v)) return;
    const std::vector<double>& ub = cell_->upper_bounds;
    std::size_t i = 0;
    while (i < ub.size() && v > ub[i]) ++i;
    cell_->buckets[i].fetch_add(1, std::memory_order_relaxed);
    cell_->count.fetch_add(1, std::memory_order_relaxed);
    cell_->sum.fetch_add(v, std::memory_order_relaxed);
  }

  /// Count in bucket `i` (not cumulative); i == num_buckets()-1 is +Inf.
  // starlint:allow(reachability): test seam; tests read single buckets
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const {
    return cell_ == nullptr
               ? 0
               : cell_->buckets[i].load(std::memory_order_relaxed);
  }
  // starlint:allow(reachability): test seam; tests read the bucket layout
  [[nodiscard]] std::size_t num_buckets() const {
    return cell_ == nullptr ? 0 : cell_->upper_bounds.size() + 1;
  }
  [[nodiscard]] std::uint64_t count() const {
    return cell_ == nullptr ? 0 : cell_->count.load(std::memory_order_relaxed);
  }
  // starlint:allow(reachability): test seam; tests read the running total
  [[nodiscard]] double sum() const {
    return cell_ == nullptr ? 0.0
                            : cell_->sum.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  explicit Histogram(detail::HistogramCell* cell) : cell_(cell) {}
  detail::HistogramCell* cell_ = nullptr;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every starlab instrumentation site uses.
  [[nodiscard]] static MetricsRegistry& instance();

  /// Find-or-create by name (idempotent; help is kept from the first call).
  [[nodiscard]] Counter counter(const std::string& name,
                                const std::string& help = {}) EXCLUDES(mu_);
  [[nodiscard]] Gauge gauge(const std::string& name,
                            const std::string& help = {}) EXCLUDES(mu_);
  /// `upper_bounds` must be ascending; re-registering an existing name
  /// returns the existing histogram (its original bounds win).
  [[nodiscard]] Histogram histogram(const std::string& name,
                      std::vector<double> upper_bounds,
                      const std::string& help = {}) EXCLUDES(mu_);

  /// Zero every value (registrations persist). Only tests call it.
  void reset_values() EXCLUDES(mu_);

  /// Every value as one JSON object:
  /// {"counters":{...},"gauges":{...},"histograms":{name:{...}}}.
  [[nodiscard]] std::string json() const EXCLUDES(mu_);

 private:
  /// Guards registration and export, never records: the handles the hot
  /// path records through point at pointer-stable cells inside the guarded
  /// deques and touch only the cells' atomics.
  mutable check::Mutex mu_;
  std::deque<detail::CounterCell> counters_ GUARDED_BY(mu_);
  std::deque<detail::GaugeCell> gauges_ GUARDED_BY(mu_);
  std::deque<detail::HistogramCell> histograms_ GUARDED_BY(mu_);
};

}  // namespace starlab::obs
