// RunReport: stage bookkeeping, ObsSpan stage timing, absorb() aggregation,
// the fixed-order JSON serialization (golden), and the io::report_io JSONL
// round trip including its error handling.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "io/report_io.hpp"
#include "obs/config.hpp"
#include "obs/prof.hpp"
#include "obs/run_report.hpp"
#include "obs/trace.hpp"

using namespace starlab;

namespace {

obs::RunReport sample_report() {
  obs::RunReport r;
  r.kind = "pipeline";
  r.label = "iowa";
  r.git_sha = "abc123";
  r.wall_ns = 1000;
  obs::StageStat& st = r.stage("identify");
  st.wall_ns = 600;
  st.calls = 2;
  r.slots = 4;
  r.decided = 3;
  r.abstained = 1;
  r.degraded = 2;
  r.compared = 4;
  r.correct = 3;
  r.accuracy = 0.75;
  r.quality.emplace_back("frame_missing", 1);
  r.abstain_reasons.emplace_back("low_margin", 1);
  r.fault_plan = "";
  r.add_value("mean_confidence", 0.5);
  return r;
}

TEST(ObsReport, StageIsFindOrCreate) {
  obs::RunReport r;
  obs::StageStat& a = r.stage("propagate");
  a.wall_ns = 10;
  obs::StageStat& b = r.stage("propagate");
  EXPECT_EQ(&a, &b);
  r.stage("allocate").wall_ns = 5;
  ASSERT_EQ(r.stages.size(), 2u);
  EXPECT_EQ(r.stages[0].wall_ns, 10u);
  EXPECT_EQ(r.stages[1].name, "allocate");
  EXPECT_EQ(r.stages[1].wall_ns, 5u);
}

TEST(ObsReport, AddValueOverwritesAndValueOrFallsBack) {
  obs::RunReport r;
  r.add_value("accuracy", 0.5);
  r.add_value("accuracy", 0.9);
  EXPECT_EQ(r.values.size(), 1u);
  EXPECT_DOUBLE_EQ(r.value_or("accuracy", 0.0), 0.9);
  EXPECT_DOUBLE_EQ(r.value_or("absent", -1.0), -1.0);
}

// Stages are timed by ObsSpan. With obs off a span never reads the clock
// (elapsed_ns() stays 0), leaves its stage untouched and records nothing.
TEST(ObsReport, SpanWithObsOffLeavesStageUntouched) {
  obs::set_config(obs::Config::disabled());
  obs::TraceRecorder::instance().clear();
  obs::Profiler::instance().clear();
  obs::StageStat st;
  st.name = "work";
  {
    const obs::ObsSpan span("work", &st);
    EXPECT_EQ(span.elapsed_ns(), 0u);
  }
  { const obs::ObsSpan span("work"); }  // no stage: must not crash
  EXPECT_EQ(st.wall_ns, 0u);
  EXPECT_EQ(st.calls, 0u);
  EXPECT_EQ(obs::TraceRecorder::instance().size(), 0u);
  EXPECT_EQ(obs::Profiler::instance().size(), 0u);
}

// Metrics alone (the mode benches writing JSON run in) is enough for a span
// to time its stage, while the trace and the profile stay empty.
TEST(ObsReport, SpanInMetricsOnlyModeAccumulatesStage) {
  obs::TraceRecorder::instance().clear();
  obs::Profiler::instance().clear();
  obs::set_config({/*metrics=*/true, /*tracing=*/false, /*profiling=*/false});
  obs::StageStat st;
  st.name = "work";
  { const obs::ObsSpan span("work", &st); }
  { const obs::ObsSpan span("work", &st); }
  EXPECT_EQ(st.calls, 2u);
  const std::uint64_t after_two = st.wall_ns;
  std::uint64_t seen = 0;
  {
    const obs::ObsSpan span("work", &st);
    for (int spin = 0; spin < 1000000 && seen == 0; ++spin) {
      seen = span.elapsed_ns();
    }
  }
  obs::set_config(obs::Config::disabled());
  // The close's one measurement covers at least what elapsed_ns() saw.
  EXPECT_GT(seen, 0u);
  EXPECT_GE(st.wall_ns - after_two, seen);
  EXPECT_EQ(st.calls, 3u);
  EXPECT_EQ(obs::TraceRecorder::instance().size(), 0u);
  EXPECT_EQ(obs::Profiler::instance().size(), 0u);
}

TEST(ObsReport, AbsorbSumsCountsStagesAndRecomputesAccuracy) {
  obs::RunReport a = sample_report();
  obs::RunReport b = sample_report();
  b.correct = 1;  // 1/4 on its own
  b.stage("identify").wall_ns = 100;
  b.stage("identify").calls = 1;
  b.quality[0].second = 2;
  b.abstain_reasons[0].second = 3;
  b.add_value("mean_confidence", 0.25);

  a.absorb(b);
  EXPECT_EQ(a.wall_ns, 2000u);
  EXPECT_EQ(a.slots, 8u);
  EXPECT_EQ(a.compared, 8u);
  EXPECT_EQ(a.correct, 4u);
  EXPECT_DOUBLE_EQ(a.accuracy, 0.5);
  ASSERT_EQ(a.stages.size(), 1u);
  EXPECT_EQ(a.stages[0].wall_ns, 700u);
  EXPECT_EQ(a.stages[0].calls, 3u);
  EXPECT_EQ(a.quality.size(), 1u);
  EXPECT_EQ(a.quality[0].second, 3u);
  EXPECT_EQ(a.abstain_reasons[0].second, 4u);
  // absorb() *sums* values; means need reweighting by the caller.
  EXPECT_DOUBLE_EQ(a.value_or("mean_confidence", 0.0), 0.75);
}

TEST(ObsReport, ToJsonGolden) {
  EXPECT_EQ(sample_report().to_json(),
            R"({"kind":"pipeline","label":"iowa","git_sha":"abc123",)"
            R"("wall_ns":1000,)"
            R"("stages":[{"name":"identify","wall_ns":600,"calls":2}],)"
            R"("slots":4,"decided":3,"abstained":1,"degraded":2,)"
            R"("compared":4,"correct":3,"accuracy":0.75,)"
            R"("quality":{"frame_missing":1},)"
            R"("abstain_reasons":{"low_margin":1},)"
            R"("fault_plan":"",)"
            R"("values":{"mean_confidence":0.5}})");
}

TEST(ObsReport, JsonlRoundTripPreservesEveryField) {
  obs::RunReport second;
  second.kind = "bench";
  second.label = "dtw";
  second.add_value("ns_per_op", 123.5);

  std::stringstream buf;
  io::save_run_reports(buf, {sample_report(), second});

  const std::vector<obs::RunReport> loaded = io::load_run_reports(buf);
  ASSERT_EQ(loaded.size(), 2u);
  // Field-for-field identity shows as serialization identity.
  EXPECT_EQ(loaded[0].to_json(), sample_report().to_json());
  EXPECT_EQ(loaded[1].to_json(), second.to_json());
}

TEST(ObsReport, JsonlStringEscapesRoundTrip) {
  obs::RunReport r;
  r.kind = "bench";
  r.label = "quote \" backslash \\ newline \n tab \t";
  std::stringstream buf;
  io::append_run_report(buf, r);
  // Escaping keeps it one line.
  std::string line;
  std::getline(buf, line);
  EXPECT_TRUE(buf.eof() || buf.peek() == EOF);

  std::stringstream reread(line + "\n");
  const std::vector<obs::RunReport> loaded = io::load_run_reports(reread);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].label, r.label);
}

TEST(ObsReport, JsonlSkipsBlankLinesAndIgnoresUnknownKeys) {
  std::stringstream buf;
  buf << "\n"
      << R"({"kind":"bench","label":"x","future_field":[1,2,{"a":true}],)"
      << R"("values":{"v":2}})" << "\n\n";
  const std::vector<obs::RunReport> loaded = io::load_run_reports(buf);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].label, "x");
  EXPECT_DOUBLE_EQ(loaded[0].value_or("v", 0.0), 2.0);
}

TEST(ObsReport, JsonlMalformedLineThrowsWithLineNumber) {
  std::stringstream buf;
  buf << R"({"kind":"bench","label":"ok"})" << "\n"
      << "{not json\n";
  try {
    (void)io::load_run_reports(buf);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("2"), std::string::npos)
        << "error should name line 2, got: " << e.what();
  }
}

TEST(ObsReport, FileRoundTripAndAppendMode) {
  const std::string path =
      ::testing::TempDir() + "/obs_report_roundtrip.jsonl";
  io::save_run_reports_file(path, {sample_report()});
  obs::RunReport extra;
  extra.kind = "bench";
  extra.label = "appended";
  {
    std::ofstream out(path, std::ios::app);
    io::append_run_report(out, extra);
  }

  const std::vector<obs::RunReport> loaded = io::load_run_reports_file(path);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].label, "iowa");
  EXPECT_EQ(loaded[1].label, "appended");
}

}  // namespace
