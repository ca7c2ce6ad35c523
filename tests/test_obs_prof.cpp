// The span-statistics profiler: P-squared quantile accuracy, path
// aggregation, self-time arithmetic, and the reconciliation guarantee —
// because ObsSpan measures each duration once and hands the same value to
// the run report's stage, the TraceRecorder and the Profiler, per-name
// totals in the Chrome trace, the profile report and the pipeline's stages
// agree exactly, not approximately.

#include "obs/prof.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "obs/config.hpp"
#include "obs/trace.hpp"
#include "test_helpers.hpp"

using namespace starlab;
using starlab::testing::tiny_scenario;

namespace {

class ObsProf : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_config(obs::Config::disabled());
    obs::Profiler::instance().clear();
    obs::TraceRecorder::instance().clear();
  }
  void TearDown() override {
    obs::set_config(obs::Config::disabled());
    obs::Profiler::instance().clear();
    obs::TraceRecorder::instance().clear();
  }
};

TEST_F(ObsProf, P2QuantileExactForSmallSamples) {
  obs::P2Quantile med(0.5);
  EXPECT_EQ(med.value(), 0.0);  // empty
  med.observe(10.0);
  EXPECT_DOUBLE_EQ(med.value(), 10.0);
  med.observe(20.0);
  med.observe(30.0);
  EXPECT_DOUBLE_EQ(med.value(), 20.0);

  obs::P2Quantile p95(0.95);
  for (const double x : {5.0, 1.0, 4.0, 2.0}) p95.observe(x);
  // Below five samples the estimate interpolates the sorted sample; for
  // q=0.95 over four points it sits at the top of the range.
  EXPECT_NEAR(p95.value(), 5.0, 0.5);
}

TEST_F(ObsProf, P2QuantileConvergesOnUniformStream) {
  obs::P2Quantile med(0.5);
  obs::P2Quantile p95(0.95);
  // Deterministic LCG; values uniform on [0, 1000).
  std::uint64_t state = 12345;
  for (int i = 0; i < 20000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const double x = static_cast<double>((state >> 33) % 1000000) / 1000.0;
    med.observe(x);
    p95.observe(x);
  }
  EXPECT_EQ(med.count(), 20000u);
  EXPECT_NEAR(med.value(), 500.0, 25.0);
  EXPECT_NEAR(p95.value(), 950.0, 25.0);
}

TEST_F(ObsProf, P2QuantileMonotoneStreamStaysInRange) {
  obs::P2Quantile p95(0.95);
  for (int i = 1; i <= 1000; ++i) p95.observe(static_cast<double>(i));
  EXPECT_NEAR(p95.value(), 950.0, 20.0);
}

TEST_F(ObsProf, RecordAggregatesPerPath) {
  obs::Profiler& prof = obs::Profiler::instance();
  prof.record("run", 100);
  prof.record("run", 300);
  prof.record("run;stage", 50);
  ASSERT_EQ(prof.size(), 2u);

  const std::vector<obs::SpanStats> snap = prof.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  const obs::SpanStats& run = snap[0];
  EXPECT_EQ(run.path, "run");
  EXPECT_EQ(run.name, "run");
  EXPECT_EQ(run.parent, -1);
  EXPECT_EQ(run.depth, 0u);
  EXPECT_EQ(run.count, 2u);
  EXPECT_EQ(run.total_ns, 400u);
  EXPECT_EQ(run.min_ns, 100u);
  EXPECT_EQ(run.max_ns, 300u);
  EXPECT_EQ(run.self_ns, 350u);  // 400 - child's 50

  const obs::SpanStats& stage = snap[1];
  EXPECT_EQ(stage.path, "run;stage");
  EXPECT_EQ(stage.name, "stage");
  EXPECT_EQ(stage.parent, 0);
  EXPECT_EQ(stage.depth, 1u);
  EXPECT_EQ(stage.self_ns, 50u);  // leaf: self == total
}

TEST_F(ObsProf, SnapshotSynthesizesMissingAncestors) {
  // Only a deep path recorded — as happens when the outermost span is still
  // open at export time. The tree must stay connected.
  obs::Profiler& prof = obs::Profiler::instance();
  prof.record("a;b;c", 70);

  const std::vector<obs::SpanStats> snap = prof.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].path, "a");
  EXPECT_EQ(snap[0].count, 0u);
  EXPECT_EQ(snap[0].self_ns, 0u);  // clamped: total 0 < child total 70
  EXPECT_EQ(snap[1].path, "a;b");
  EXPECT_EQ(snap[1].parent, 0);
  EXPECT_EQ(snap[2].path, "a;b;c");
  EXPECT_EQ(snap[2].parent, 1);
  EXPECT_EQ(snap[2].depth, 2u);
  EXPECT_EQ(snap[2].total_ns, 70u);
}

TEST_F(ObsProf, NestedSpansBuildSemicolonPaths) {
  obs::set_config({/*metrics=*/false, /*tracing=*/false, /*profiling=*/true});
  {
    obs::ObsSpan outer("outer");
    { obs::ObsSpan inner("inner"); }
    { obs::ObsSpan inner("inner"); }
  }
  obs::set_config(obs::Config::disabled());

  const std::vector<obs::SpanStats> snap = obs::Profiler::instance().snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].path, "outer");
  EXPECT_EQ(snap[0].count, 1u);
  EXPECT_EQ(snap[1].path, "outer;inner");
  EXPECT_EQ(snap[1].count, 2u);
  // Self-time arithmetic on real clock readings: the children closed inside
  // the parent, so parent.total >= children.total and
  // parent.self == parent.total - children.total exactly.
  EXPECT_GE(snap[0].total_ns, snap[1].total_ns);
  EXPECT_EQ(snap[0].self_ns, snap[0].total_ns - snap[1].total_ns);

  // No trace events: tracing stayed off while profiling was on.
  EXPECT_EQ(obs::TraceRecorder::instance().size(), 0u);
}

TEST_F(ObsProf, DisabledSpansRecordNothing) {
  { obs::ObsSpan span("ghost"); }
  EXPECT_EQ(obs::Profiler::instance().size(), 0u);
  EXPECT_EQ(obs::TraceRecorder::instance().size(), 0u);
}

TEST_F(ObsProf, ProfileReconcilesWithChromeTraceOnRealPipeline) {
  obs::set_config(obs::Config::all());
  const core::Scenario& sc = tiny_scenario();
  const core::InferencePipeline pipeline(sc);
  const core::PipelineResult result = pipeline.run(0, 600.0);
  obs::set_config(obs::Config::disabled());

  // Per-name totals from the trace events...
  std::map<std::string, std::uint64_t> trace_totals;
  std::map<std::string, std::uint64_t> trace_counts;
  for (const obs::TraceEvent& e : obs::TraceRecorder::instance().events()) {
    trace_totals[e.name] += e.dur_ns;
    trace_counts[e.name] += 1;
  }
  ASSERT_FALSE(trace_totals.empty());

  // ...must equal per-name totals from the profile, exactly: both sides of
  // every span close consumed the same duration measurement.
  std::map<std::string, std::uint64_t> prof_totals;
  std::map<std::string, std::uint64_t> prof_counts;
  for (const obs::SpanStats& s : obs::Profiler::instance().snapshot()) {
    prof_totals[s.name] += s.total_ns;
    prof_counts[s.name] += s.count;
  }
  EXPECT_EQ(trace_totals, prof_totals);
  EXPECT_EQ(trace_counts, prof_counts);
  EXPECT_NE(prof_totals.find("pipeline.run"), prof_totals.end());

  // The run report's stages are the same spans' view: each stage's wall_ns
  // and calls equal the profile's pipeline.<stage> total and count exactly.
  ASSERT_EQ(result.report.stages.size(), 4u);
  for (const obs::StageStat& st : result.report.stages) {
    const std::string span = "pipeline." + st.name;
    EXPECT_GT(st.calls, 0u) << span;
    EXPECT_EQ(st.wall_ns, prof_totals[span]) << span;
    EXPECT_EQ(st.calls, prof_counts[span]) << span;
  }
}

TEST_F(ObsProf, ReportJsonShapeAndNamesRollup) {
  obs::Profiler& prof = obs::Profiler::instance();
  prof.record("run", 400);
  prof.record("run;stage", 150);
  prof.record("stage", 50);  // same name, different path: rolls up

  const std::string json = prof.report_json();
  EXPECT_NE(json.find("\"kind\":\"profile\""), std::string::npos);
  EXPECT_NE(json.find("\"spans\":["), std::string::npos);
  EXPECT_NE(json.find("\"path\":\"run;stage\""), std::string::npos);
  // names rollup: "stage" totals 150 + 50 across its two paths.
  const std::size_t names = json.find("\"names\":[");
  ASSERT_NE(names, std::string::npos);
  EXPECT_NE(json.find("\"name\":\"stage\",\"count\":2,\"total_ns\":200",
                      names),
            std::string::npos);
}

TEST_F(ObsProf, CollapsedStacksEmitSelfTime) {
  obs::Profiler& prof = obs::Profiler::instance();
  prof.record("run", 400);
  prof.record("run;stage", 150);
  const std::string folded = prof.collapsed_stacks();
  EXPECT_EQ(folded, "run 250\nrun;stage 150\n");
}

TEST_F(ObsProf, ClearEmptiesTheAggregate) {
  obs::Profiler& prof = obs::Profiler::instance();
  prof.record("x", 1);
  ASSERT_EQ(prof.size(), 1u);
  prof.clear();
  EXPECT_EQ(prof.size(), 0u);
  EXPECT_TRUE(prof.snapshot().empty());
}

}  // namespace
