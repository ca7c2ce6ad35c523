// Tracing spans: the disabled null sink, nesting depth, per-thread ids,
// and the Chrome trace_event export (golden string over hand-recorded
// events so timestamps are deterministic).

#include <gtest/gtest.h>

#include <thread>

#include "obs/config.hpp"
#include "obs/trace.hpp"

using namespace starlab;

namespace {

class ObsTrace : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::TraceRecorder::instance().clear();
    obs::set_config({/*metrics=*/false, /*tracing=*/true});
  }
  void TearDown() override {
    obs::set_config(obs::Config::disabled());
    obs::TraceRecorder::instance().clear();
  }
};

TEST_F(ObsTrace, DisabledSpanRecordsNothing) {
  obs::set_config(obs::Config::disabled());
  {
    const obs::ObsSpan span("invisible");
  }
  EXPECT_EQ(obs::TraceRecorder::instance().size(), 0u);
}

TEST_F(ObsTrace, NestedSpansRecordDepthAndOrder) {
  {
    const obs::ObsSpan outer("outer");
    { const obs::ObsSpan inner("inner"); }
  }

  const std::vector<obs::TraceEvent> events =
      obs::TraceRecorder::instance().events();
  ASSERT_EQ(events.size(), 2u);
  // Destructors fire inner-first.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[0].depth, 1u);
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[1].depth, 0u);
  EXPECT_EQ(events[0].tid, events[1].tid);
  EXPECT_GE(events[0].start_ns, events[1].start_ns);
  EXPECT_LE(events[0].dur_ns, events[1].dur_ns);
}

TEST_F(ObsTrace, ThreadsGetDistinctSmallTids) {
  const std::uint32_t main_tid = obs::ObsSpan::thread_id();
  EXPECT_GE(main_tid, 1u);
  EXPECT_EQ(obs::ObsSpan::thread_id(), main_tid) << "tid is sticky per thread";

  std::uint32_t worker_tid = 0;
  std::thread worker([&] {
    const obs::ObsSpan span("worker.span");
    worker_tid = obs::ObsSpan::thread_id();
  });
  worker.join();
  EXPECT_NE(worker_tid, main_tid);

  const std::vector<obs::TraceEvent> events =
      obs::TraceRecorder::instance().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].tid, worker_tid);
  EXPECT_EQ(events[0].depth, 0u)
      << "depth is thread-local, not inherited from the spawning thread";
}

TEST_F(ObsTrace, ChromeTraceJsonGolden) {
  obs::TraceRecorder recorder;
  recorder.record({"alpha", 1000, 500, 1, 0});
  recorder.record({"beta", 3000, 1500, 2, 1});

  // Timestamps rebased to the earliest event and converted to microseconds.
  EXPECT_EQ(recorder.chrome_trace_json(),
            R"({"traceEvents":[)"
            R"({"name":"alpha","ph":"X","ts":0,"dur":0.5,"pid":1,"tid":1,)"
            R"("args":{"depth":0}},)"
            R"({"name":"beta","ph":"X","ts":2,"dur":1.5,"pid":1,"tid":2,)"
            R"("args":{"depth":1}}],)"
            R"("displayTimeUnit":"ms"})");
}

TEST_F(ObsTrace, ChromeTraceJsonSortsByStartTime) {
  obs::TraceRecorder recorder;
  recorder.record({"late", 9000, 10, 1, 0});
  recorder.record({"early", 2000, 10, 1, 0});
  const std::string json = recorder.chrome_trace_json();
  EXPECT_LT(json.find("early"), json.find("late"));
}

TEST_F(ObsTrace, ClearDropsRecordedEvents) {
  {
    const obs::ObsSpan span("ephemeral");
  }
  EXPECT_GT(obs::TraceRecorder::instance().size(), 0u);
  obs::TraceRecorder::instance().clear();
  EXPECT_EQ(obs::TraceRecorder::instance().size(), 0u);
}

}  // namespace
