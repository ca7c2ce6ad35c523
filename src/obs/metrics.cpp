#include "obs/metrics.hpp"

#include "obs/json_writer.hpp"

namespace starlab::obs {

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

Counter MetricsRegistry::counter(const std::string& name,
                                 const std::string& help) {
  const check::MutexLock lock(mu_);
  for (detail::CounterCell& c : counters_) {
    if (c.name == name) return Counter(&c);
  }
  detail::CounterCell& cell = counters_.emplace_back();
  cell.name = name;
  cell.help = help;
  return Counter(&cell);
}

Gauge MetricsRegistry::gauge(const std::string& name, const std::string& help) {
  const check::MutexLock lock(mu_);
  for (detail::GaugeCell& g : gauges_) {
    if (g.name == name) return Gauge(&g);
  }
  detail::GaugeCell& cell = gauges_.emplace_back();
  cell.name = name;
  cell.help = help;
  return Gauge(&cell);
}

Histogram MetricsRegistry::histogram(const std::string& name,
                                     std::vector<double> upper_bounds,
                                     const std::string& help) {
  const check::MutexLock lock(mu_);
  for (detail::HistogramCell& h : histograms_) {
    if (h.name == name) return Histogram(&h);
  }
  detail::HistogramCell& cell = histograms_.emplace_back();
  cell.name = name;
  cell.help = help;
  cell.upper_bounds = std::move(upper_bounds);
  cell.buckets = std::make_unique<std::atomic<std::uint64_t>[]>(
      cell.upper_bounds.size() + 1);
  for (std::size_t i = 0; i <= cell.upper_bounds.size(); ++i) {
    cell.buckets[i].store(0, std::memory_order_relaxed);
  }
  return Histogram(&cell);
}

// starlint:allow(reachability): test seam isolating tests sharing registry
void MetricsRegistry::reset_values() {
  const check::MutexLock lock(mu_);
  for (detail::CounterCell& c : counters_) {
    c.value.store(0, std::memory_order_relaxed);
  }
  for (detail::GaugeCell& g : gauges_) {
    g.value.store(0.0, std::memory_order_relaxed);
  }
  for (detail::HistogramCell& h : histograms_) {
    for (std::size_t i = 0; i <= h.upper_bounds.size(); ++i) {
      h.buckets[i].store(0, std::memory_order_relaxed);
    }
    h.count.store(0, std::memory_order_relaxed);
    h.sum.store(0.0, std::memory_order_relaxed);
  }
}

std::string MetricsRegistry::json() const {
  const check::MutexLock lock(mu_);
  JsonWriter w;
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const detail::CounterCell& c : counters_) {
    w.key(c.name);
    w.value(c.value.load(std::memory_order_relaxed));
  }
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const detail::GaugeCell& g : gauges_) {
    w.key(g.name);
    w.value(g.value.load(std::memory_order_relaxed));
  }
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const detail::HistogramCell& h : histograms_) {
    w.key(h.name);
    w.begin_object();
    w.key("upper_bounds");
    w.begin_array();
    for (const double b : h.upper_bounds) w.value(b);
    w.end_array();
    w.key("buckets");
    w.begin_array();
    for (std::size_t i = 0; i <= h.upper_bounds.size(); ++i) {
      w.value(h.buckets[i].load(std::memory_order_relaxed));
    }
    w.end_array();
    w.key("sum");
    w.value(h.sum.load(std::memory_order_relaxed));
    w.key("count");
    w.value(h.count.load(std::memory_order_relaxed));
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return std::move(w).str();
}

}  // namespace starlab::obs
