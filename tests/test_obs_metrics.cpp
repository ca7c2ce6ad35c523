// The metrics registry: handle semantics, le-inclusive histogram bucket
// edges, the disabled null sink, and exact Prometheus / JSON exports
// (golden strings — the exporters must stay deterministic).

#include <gtest/gtest.h>

#include <limits>

#include "obs/config.hpp"
#include "obs/metrics.hpp"

using namespace starlab;

namespace {

/// Every test runs with a known config and restores the process default
/// (disabled) afterwards — the binary's other suites rely on the null sink.
class ObsMetrics : public ::testing::Test {
 protected:
  void SetUp() override { obs::set_config(obs::Config::all()); }
  void TearDown() override { obs::set_config(obs::Config::disabled()); }
};

TEST_F(ObsMetrics, CounterRegistrationIsFindOrCreate) {
  obs::MetricsRegistry reg;
  const obs::Counter a = reg.counter("events_total", "first help wins");
  const obs::Counter b = reg.counter("events_total", "ignored");
  a.add();
  a.add(4);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(b.value(), 5u) << "same name must alias the same cell";
}

TEST_F(ObsMetrics, GaugeIsLastWriteWins) {
  obs::MetricsRegistry reg;
  const obs::Gauge g = reg.gauge("level");
  g.set(1.5);
  g.set(-3.0);
  EXPECT_DOUBLE_EQ(g.value(), -3.0);
}

TEST_F(ObsMetrics, HistogramBucketEdgesAreLeInclusive) {
  obs::MetricsRegistry reg;
  const obs::Histogram h = reg.histogram("sizes", {1.0, 2.0, 5.0});
  ASSERT_EQ(h.num_buckets(), 4u);  // three finite bounds + implicit +Inf

  h.observe(0.5);   // -> le=1
  h.observe(1.0);   // boundary value belongs to its own bound: le=1
  h.observe(1.001); // -> le=2
  h.observe(2.0);   // -> le=2
  h.observe(5.0);   // -> le=5
  h.observe(99.0);  // -> +Inf overflow

  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.001 + 2.0 + 5.0 + 99.0);
}

TEST_F(ObsMetrics, DisabledConfigIsANullSink) {
  obs::MetricsRegistry reg;
  const obs::Counter c = reg.counter("c_total");
  const obs::Gauge g = reg.gauge("g");
  const obs::Histogram h = reg.histogram("h", {1.0});

  obs::set_config(obs::Config::disabled());
  c.add(7);
  g.set(9.0);
  h.observe(0.5);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);

  obs::set_config(obs::Config::all());
  c.add(7);
  EXPECT_EQ(c.value(), 7u);
}

TEST_F(ObsMetrics, DefaultConstructedHandlesAreSafe) {
  const obs::Counter c;
  const obs::Gauge g;
  const obs::Histogram h;
  c.add();
  g.set(1.0);
  h.observe(1.0);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.num_buckets(), 0u);
}

TEST_F(ObsMetrics, ResetValuesZeroesButKeepsRegistrations) {
  obs::MetricsRegistry reg;
  const obs::Counter c = reg.counter("c_total");
  const obs::Histogram h = reg.histogram("h", {1.0, 2.0});
  c.add(3);
  h.observe(1.5);
  reg.reset_values();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket_count(1), 0u);
  c.add();  // the handle still points at a live, registered cell
  EXPECT_EQ(c.value(), 1u);
}

TEST_F(ObsMetrics, HistogramRejectsNonFiniteObservations) {
  obs::MetricsRegistry reg;
  const obs::Histogram h = reg.histogram("starlab_test_nan", {1.0, 2.0});
  h.observe(0.5);
  h.observe(std::numeric_limits<double>::quiet_NaN());
  h.observe(std::numeric_limits<double>::infinity());
  h.observe(-std::numeric_limits<double>::infinity());
  // Only the finite observation landed; sum stays finite (a single NaN
  // would otherwise poison _sum forever).
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5);
  EXPECT_EQ(h.bucket_count(0), 1u);
}

TEST_F(ObsMetrics, HistogramImplicitInfBucketEqualsCount) {
  // The implicit +Inf bucket takes every observation above the finite
  // bounds, so here it holds the whole count.
  obs::MetricsRegistry reg;
  const obs::Histogram h = reg.histogram("starlab_test_over", {1.0});
  h.observe(50.0);
  h.observe(60.0);
  EXPECT_DOUBLE_EQ(h.sum(), 110.0);
  EXPECT_EQ(h.bucket_count(0), 0u);
  EXPECT_EQ(h.bucket_count(h.num_buckets() - 1), h.count());
  EXPECT_EQ(h.count(), 2u);
}

TEST_F(ObsMetrics, JsonExportGolden) {
  obs::MetricsRegistry reg;
  const obs::Counter c = reg.counter("starlab_test_events_total");
  const obs::Gauge g = reg.gauge("starlab_test_level");
  const obs::Histogram h = reg.histogram("starlab_test_sizes", {1.0, 2.0});
  c.add(3);
  g.set(2.5);
  h.observe(0.5);
  h.observe(1.5);
  h.observe(9.0);

  EXPECT_EQ(reg.json(),
            R"({"counters":{"starlab_test_events_total":3},)"
            R"("gauges":{"starlab_test_level":2.5},)"
            R"("histograms":{"starlab_test_sizes":{)"
            R"("upper_bounds":[1,2],"buckets":[1,1,1],"sum":11,"count":3}}})");
}

}  // namespace
