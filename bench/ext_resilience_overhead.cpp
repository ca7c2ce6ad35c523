// Checkpoint/resume overhead: what does crash safety cost?
//
// Acceptance for the resilience layer: journaled campaign execution stays
// within 5 % of the plain run_campaign wall time, and with journaling
// disabled the durable runner is bit-identical (verified here, not just in
// the unit tests). Also measures the payoff side: resuming a fully
// journaled campaign versus recomputing it. Headline rows land in
// BENCH_resilience.json for cross-commit tracking.

#include "bench_common.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <vector>

#include "io/campaign_io.hpp"
#include "io/journal_io.hpp"
#include "resilience/durable_campaign.hpp"

using namespace starlab;

namespace {

constexpr const char* kJournalPath = "/tmp/starlab_bench_resilience.journal";

core::CampaignConfig bench_campaign() {
  core::CampaignConfig config;
  config.duration_hours = 0.25;  // 60 recorded slots x 4 terminals
  return config;
}

std::string campaign_bytes(const core::CampaignData& data) {
  std::ostringstream out;
  io::save_campaign(out, data);
  return std::move(out).str();
}

/// Median wall time of `reps` runs of `fn`, in milliseconds.
template <typename Fn>
double median_ms(int reps, Fn&& fn) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const std::uint64_t t0 = obs::monotonic_ns();
    fn();
    times.push_back(static_cast<double>(obs::monotonic_ns() - t0) / 1e6);
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  bench::ReportSink sink(argc, argv, "BENCH_resilience.json");
  const core::Scenario& scenario = bench::half_scenario();
  const core::CampaignConfig config = bench_campaign();
  constexpr int kReps = 5;

  bench::print_header("Resilience: checkpoint overhead and resume payoff");

  // Correctness gates first: the timing comparison is meaningless if the
  // outputs diverge.
  const core::CampaignData plain = core::run_campaign(scenario, config);
  const std::string plain_bytes = campaign_bytes(plain);
  {
    const resilience::DurableCampaignResult unjournaled =
        resilience::run_campaign_durable(scenario, config,
                                         resilience::DurableCampaignConfig{});
    const bool identical = campaign_bytes(unjournaled.data) == plain_bytes;
    bench::print_comparison("durable(no journal) == plain", "bit-identical",
                            identical ? "bit-identical" : "DIVERGED");
    if (!identical) return 1;
  }
  io::remove_journal(kJournalPath);
  resilience::DurableCampaignConfig journaled;
  journaled.journal_path = kJournalPath;
  {
    const resilience::DurableCampaignResult first =
        resilience::run_campaign_durable(scenario, config, journaled);
    const bool identical = campaign_bytes(first.data) == plain_bytes;
    bench::print_comparison("durable(journaled) == plain", "bit-identical",
                            identical ? "bit-identical" : "DIVERGED");
    if (!identical) return 1;
  }

  // Overhead: plain vs journaled-from-scratch (resume disabled so every rep
  // recomputes and rewrites the full journal).
  const double plain_ms = median_ms(
      kReps, [&] { (void)core::run_campaign(scenario, config); });
  resilience::DurableCampaignConfig fresh = journaled;
  fresh.resume = false;
  const double journaled_ms = median_ms(kReps, [&] {
    (void)resilience::run_campaign_durable(scenario, config, fresh);
  });
  const double overhead_pct = (journaled_ms / plain_ms - 1.0) * 100.0;

  // The paper's path with fault recovery: the supervised inferred campaign
  // must match the unsupervised one byte for byte, then cost little more.
  const core::InferencePipeline pipeline(scenario);
  constexpr double kInferredSec = 300.0;  // 20 slots x 4 terminals
  const resilience::SupervisorConfig supervisor{};
  {
    const bool identical =
        campaign_bytes(resilience::run_inferred_campaign_supervised(
            pipeline, kInferredSec, supervisor)) ==
        campaign_bytes(pipeline.run_inferred_campaign(kInferredSec));
    bench::print_comparison("supervised inferred == inferred", "bit-identical",
                            identical ? "bit-identical" : "DIVERGED");
    if (!identical) return 1;
  }
  const double inferred_ms = median_ms(
      kReps, [&] { (void)pipeline.run_inferred_campaign(kInferredSec); });
  const double supervised_ms = median_ms(kReps, [&] {
    (void)resilience::run_inferred_campaign_supervised(pipeline, kInferredSec,
                                                       supervisor);
  });

  // Payoff: resuming the complete journal vs recomputing.
  (void)resilience::run_campaign_durable(scenario, config, journaled);
  const double resume_ms = median_ms(kReps, [&] {
    (void)resilience::run_campaign_durable(scenario, config, journaled);
  });

  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f ms", plain_ms);
  bench::print_comparison("plain run_campaign", "-", buf);
  std::snprintf(buf, sizeof(buf), "%.2f ms (%+.2f %%)", journaled_ms,
                overhead_pct);
  bench::print_comparison("journaled durable run", "<= +5 %", buf);
  std::snprintf(buf, sizeof(buf), "%.2f ms (%.1fx)", resume_ms,
                plain_ms / std::max(resume_ms, 1e-9));
  bench::print_comparison("resume from full journal", "-", buf);
  std::snprintf(buf, sizeof(buf), "%.2f ms (%+.2f %%)", supervised_ms,
                (supervised_ms / inferred_ms - 1.0) * 100.0);
  bench::print_comparison("supervised inferred campaign", "-", buf);

  obs::RunReport report;
  report.kind = "bench";
  report.label = "resilience_overhead";
  report.slots = plain.slots.size();
  report.add_value("plain_ms", plain_ms);
  report.add_value("journaled_ms", journaled_ms);
  report.add_value("overhead_pct", overhead_pct);
  report.add_value("resume_ms", resume_ms);
  report.add_value("inferred_ms", inferred_ms);
  report.add_value("supervised_inferred_ms", supervised_ms);
  sink.add(report);

  io::remove_journal(kJournalPath);
  // The 5 % gate is advisory on shared CI hardware; report, don't fail.
  return 0;
}
