// The observability contract on the real pipeline and campaign: with
// obs::Config::disabled() the outputs are bit-identical to an instrumented
// run (the null-sink guarantee, mirroring the fault layer's intensity-0
// property), and with obs enabled the run report's stages and the trace
// recorder actually describe the run.

#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "obs/config.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "test_helpers.hpp"

using namespace starlab;
using starlab::testing::tiny_scenario;

namespace {

class ObsNullSink : public ::testing::Test {
 protected:
  void TearDown() override {
    obs::set_config(obs::Config::disabled());
    obs::TraceRecorder::instance().clear();
  }
};

bool rows_identical(const core::PipelineResult& a,
                    const core::PipelineResult& b) {
  if (a.rows.size() != b.rows.size()) return false;
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    const core::SlotIdentification& x = a.rows[i];
    const core::SlotIdentification& y = b.rows[i];
    if (x.slot != y.slot || x.truth_norad != y.truth_norad ||
        x.inferred_norad != y.inferred_norad || x.dtw != y.dtw ||
        x.quality != y.quality || x.confidence != y.confidence ||
        x.abstain != y.abstain) {
      return false;
    }
  }
  return true;
}

TEST_F(ObsNullSink, PipelineRowsAreBitIdenticalDisabledVsEnabled) {
  const core::Scenario& sc = tiny_scenario();
  const core::InferencePipeline pipeline(sc);

  obs::set_config(obs::Config::disabled());
  const core::PipelineResult off = pipeline.run(0, 900.0);

  obs::set_config(obs::Config::all());
  const core::PipelineResult on = pipeline.run(0, 900.0);

  EXPECT_TRUE(rows_identical(off, on));
  EXPECT_EQ(off.report.slots, on.report.slots);
  EXPECT_EQ(off.report.decided, on.report.decided);
  EXPECT_EQ(off.report.quality, on.report.quality);
  EXPECT_EQ(off.report.abstain_reasons, on.report.abstain_reasons);
  EXPECT_EQ(off.accuracy(), on.accuracy());
}

TEST_F(ObsNullSink, CampaignIsBitIdenticalDisabledVsEnabled) {
  const core::Scenario& sc = tiny_scenario();
  core::CampaignConfig cfg;
  cfg.duration_hours = 0.5;

  obs::set_config(obs::Config::disabled());
  const core::CampaignData off = core::run_campaign(sc, cfg);

  obs::set_config(obs::Config::all());
  const core::CampaignData on = core::run_campaign(sc, cfg);

  ASSERT_EQ(off.slots.size(), on.slots.size());
  for (std::size_t i = 0; i < off.slots.size(); ++i) {
    EXPECT_EQ(off.slots[i].slot, on.slots[i].slot);
    EXPECT_EQ(off.slots[i].chosen, on.slots[i].chosen);
    EXPECT_EQ(off.slots[i].quality, on.slots[i].quality);
    EXPECT_EQ(off.slots[i].confidence, on.slots[i].confidence);
    EXPECT_EQ(off.slots[i].available.size(), on.slots[i].available.size());
  }
  EXPECT_EQ(off.report.decided, on.report.decided);
}

TEST_F(ObsNullSink, DisabledRunCarriesCountsButNoTimings) {
  obs::set_config(obs::Config::disabled());
  const core::Scenario& sc = tiny_scenario();
  const core::InferencePipeline pipeline(sc);
  const core::PipelineResult result = pipeline.run(0, 600.0);

  EXPECT_GT(result.report.slots, 0u);
  EXPECT_EQ(result.report.wall_ns, 0u) << "timing must stay off by default";
  EXPECT_TRUE(result.report.stages.empty());
  EXPECT_EQ(obs::TraceRecorder::instance().size(), 0u);
}

TEST_F(ObsNullSink, EnabledRunReportsStagesSummingBelowWallClock) {
  // Everything on, and metrics alone: the mode benches writing JSON run in
  // (bench::ReportSink), where the stage spans time without tracing or
  // profiling.
  const obs::Config metrics_only{/*metrics=*/true, /*tracing=*/false,
                                 /*profiling=*/false};
  for (const obs::Config& cfg : {obs::Config::all(), metrics_only}) {
    SCOPED_TRACE(cfg.tracing ? "all" : "metrics only");
    obs::set_config(cfg);
    const core::Scenario& sc = tiny_scenario();
    const core::InferencePipeline pipeline(sc);
    const core::PipelineResult result = pipeline.run(0, 900.0);

    EXPECT_GT(result.report.wall_ns, 0u);
    ASSERT_FALSE(result.report.stages.empty());
    std::uint64_t stage_sum = 0;
    for (const obs::StageStat& st : result.report.stages) {
      stage_sum += st.wall_ns;
    }
    EXPECT_GT(stage_sum, 0u);
    // Stages are disjoint sections of the run, so their sum is bounded by —
    // and for this loop-dominated pipeline close to — the run's wall-clock.
    // The lower bound guards against stage pointers silently going dead
    // (e.g. the stage container relocating under the spans timing it).
    EXPECT_LE(stage_sum, result.report.wall_ns);
    EXPECT_GE(stage_sum, result.report.wall_ns / 2);
    for (const char* name : {"allocate", "record", "observe", "identify"}) {
      const auto st = std::find_if(
          result.report.stages.begin(), result.report.stages.end(),
          [&](const obs::StageStat& s) { return s.name == name; });
      ASSERT_NE(st, result.report.stages.end()) << name;
      EXPECT_GT(st->calls, 0u) << name;
    }
  }
}

TEST_F(ObsNullSink, EnabledRunRecordsSpansForTheTrace) {
  obs::set_config(obs::Config::all());
  obs::TraceRecorder::instance().clear();
  const core::Scenario& sc = tiny_scenario();
  const core::InferencePipeline pipeline(sc);
  (void)pipeline.run(0, 600.0);

  bool saw_run_span = false, saw_identify_span = false;
  for (const obs::TraceEvent& e : obs::TraceRecorder::instance().events()) {
    if (e.name == "pipeline.run") saw_run_span = true;
    if (e.name == "identifier.identify") saw_identify_span = true;
  }
  EXPECT_TRUE(saw_run_span);
  EXPECT_TRUE(saw_identify_span);

  // And the export is loadable Chrome trace JSON in shape.
  const std::string json = obs::TraceRecorder::instance().chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST_F(ObsNullSink, PipelineCountersAgreeWithTheRunReport) {
  obs::set_config({/*metrics=*/true, /*tracing=*/false});
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  reg.reset_values();

  const core::Scenario& sc = tiny_scenario();
  const core::InferencePipeline pipeline(sc);
  const core::PipelineResult result = pipeline.run(0, 600.0);

  EXPECT_EQ(reg.counter("starlab_pipeline_runs_total").value(), 1u);
  EXPECT_EQ(reg.counter("starlab_pipeline_slots_total").value(),
            result.report.slots);
  EXPECT_EQ(reg.counter("starlab_pipeline_decided_total").value(),
            result.report.decided);
  EXPECT_GT(reg.counter("starlab_identifier_slots_total").value(), 0u);
  EXPECT_GT(reg.counter("starlab_identifier_dtw_evals_total").value(), 0u);
  reg.reset_values();
}

}  // namespace
