#include "core/pipeline.hpp"

#include "fault/fault_plan.hpp"
#include "fault/injectors.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace starlab::core {

namespace {

/// Pre-registered pipeline metrics (one-time registration, lock-free adds).
struct PipelineMetrics {
  obs::Counter runs, slots, decided, abstained, degraded;

  static const PipelineMetrics& get() {
    static const PipelineMetrics m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
      PipelineMetrics x;
      x.runs = reg.counter("starlab_pipeline_runs_total",
                           "Identification pipeline runs");
      x.slots = reg.counter("starlab_pipeline_slots_total",
                            "Slots the pipeline emitted a row for");
      x.decided = reg.counter("starlab_pipeline_decided_total",
                              "Slots the pipeline answered");
      x.abstained = reg.counter("starlab_pipeline_abstained_total",
                                "Slots the identifier declined to answer");
      x.degraded = reg.counter("starlab_pipeline_degraded_total",
                               "Slots carrying at least one quality flag");
      return x;
    }();
    return m;
  }
};

/// The entries of a slot's sky the scheduler could have picked: what the
/// row keeps, after identification has scored all of them.
std::vector<ground::Candidate> usable_only(std::vector<ground::Candidate> sky) {
  std::erase_if(sky, [](const ground::Candidate& c) { return !c.usable(); });
  return sky;
}

}  // namespace

void PipelineResult::summarize() {
  report.slots = rows.size();
  report.decided = 0;
  report.abstained = 0;
  report.degraded = 0;
  report.compared = 0;
  report.correct = 0;
  report.quality = quality::tally(rows);
  report.abstain_reasons.clear();

  double confidence_sum = 0.0;
  for (const SlotIdentification& r : rows) {
    if (r.inferred_norad.has_value()) {
      ++report.decided;
      confidence_sum += r.confidence;
    }
    if (r.abstained()) {
      ++report.abstained;
      obs::RunReport::bump(report.abstain_reasons,
                           match::abstain_reason_name(r.abstain));
    }
    if (r.quality != 0) ++report.degraded;
    if (r.truth_norad.has_value() && r.inferred_norad.has_value()) {
      ++report.compared;
      if (r.correct()) ++report.correct;
    }
  }
  report.accuracy = report.compared == 0
                        ? 0.0
                        : static_cast<double>(report.correct) /
                              static_cast<double>(report.compared);
  report.add_value("mean_confidence",
                   report.decided == 0
                       ? 0.0
                       : confidence_sum /
                             static_cast<double>(report.decided));
}

std::size_t PipelineResult::flagged(std::uint32_t quality_bit) const {
  return quality::count(report.quality, quality_bit);
}

InferencePipeline::InferencePipeline(const Scenario& scenario,
                                     PipelineConfig config)
    : scenario_(scenario), config_(std::move(config)) {}

std::optional<obsmap::RecoveredParams>
InferencePipeline::recover_geometry_via_fill(const Scenario& scenario,
                                             std::size_t terminal_index,
                                             double hours) {
  const ground::Terminal& terminal = scenario.terminal(terminal_index);
  obsmap::MapRecorder recorder(scenario.catalog(), terminal, scenario.grid());

  const time::SlotIndex first = scenario.first_slot();
  const auto num_slots = static_cast<time::SlotIndex>(
      hours * 3600.0 / scenario.grid().period_seconds());
  for (time::SlotIndex s = first; s < first + num_slots; ++s) {
    recorder.record_slot(
        scenario.global_scheduler().allocate(terminal, s));
  }
  return obsmap::recover_geometry(recorder.accumulated());
}

PipelineResult InferencePipeline::run(std::size_t terminal_index,
                                      double duration_sec) const {
  const obs::ObsSpan run_span("pipeline.run");
  const bool timed = obs::enabled();

  PipelineResult result;
  const ground::Terminal& terminal = scenario_.terminal(terminal_index);
  const time::SlotGrid& grid = scenario_.grid();
  const scheduler::GlobalScheduler& global = scenario_.global_scheduler();

  result.report.kind = "pipeline";
  result.report.label = terminal.name();
  obs::StageStat* st_allocate =
      timed ? &result.report.stage("allocate") : nullptr;
  obs::StageStat* st_record = timed ? &result.report.stage("record") : nullptr;
  obs::StageStat* st_observe =
      timed ? &result.report.stage("observe") : nullptr;
  obs::StageStat* st_identify =
      timed ? &result.report.stage("identify") : nullptr;

  obsmap::MapRecorder recorder(scenario_.catalog(), terminal, grid,
                               obsmap::TrajectoryPainter(kGeometry));
  match::SatelliteIdentifier identifier(scenario_.catalog(), kGeometry, grid,
                                        config_.identifier);
  const fault::FaultPlan& plan =
      config_.faults.has_value() ? *config_.faults : scenario_.fault_plan();
  const fault::FrameFaultInjector frame_faults(plan);
  result.report.fault_plan = fault::format_fault_plan(plan);

  const time::SlotIndex first = scenario_.first_slot();
  const auto num_slots =
      static_cast<time::SlotIndex>(duration_sec / grid.period_seconds());
  const auto slots_per_reset = static_cast<time::SlotIndex>(
      config_.reset_interval_sec / grid.period_seconds());

  // The last frame the pipeline *observed* (a dropped poll leaves it where
  // it was, so the next XOR runs against a stale baseline) and how many
  // polls failed since then.
  std::optional<obsmap::ObstructionMap> prev_frame;
  std::size_t polls_missed_since_prev = 0;
  for (time::SlotIndex s = first; s < first + num_slots; ++s) {
    // Scheduled terminal reset: wipes the frame, so the following slot has
    // no previous frame to XOR against and is skipped (as in the paper).
    if (slots_per_reset > 0 && (s - first) % slots_per_reset == 0 && s != first) {
      recorder.reset();
      prev_frame.reset();
      polls_missed_since_prev = 0;
    }

    // The slot's one sky query: allocation picks from it, identification
    // scores all of it, and the row keeps its usable entries for
    // append_inferred_rows.
    std::vector<ground::Candidate> sky;
    const std::optional<scheduler::Allocation> truth = [&] {
      const obs::ObsSpan span("pipeline.allocate", st_allocate);
      sky = terminal.candidates(
          scenario_.catalog(),
          time::JulianDate::from_unix_seconds(grid.slot_mid(s)));
      return global.allocate_from(terminal, s, sky);
    }();
    // The dish always paints; faults only affect what the poll observes.
    obsmap::ObstructionMap frame = [&] {
      const obs::ObsSpan span("pipeline.record", st_record);
      return recorder.record_slot(truth);
    }();

    SlotIdentification row;
    row.slot = s;
    if (truth.has_value()) row.truth_norad = truth->norad_id;

    {
      const obs::ObsSpan span("pipeline.observe", st_observe);
      if (frame_faults.frame_dropped(terminal_index, s)) {
        // No frame observed: this slot is undecidable, and the stale
        // baseline taints the next XOR (flagged there as kStaleBaseline).
        row.quality |= quality::kFrameMissing;
      } else if (frame_faults.corrupt(frame, terminal_index, s) > 0) {
        row.quality |= quality::kFrameCorrupted;
      }
    }
    if ((row.quality & quality::kFrameMissing) != 0) {
      row.sky = usable_only(std::move(sky));
      result.rows.push_back(std::move(row));
      ++polls_missed_since_prev;
      continue;
    }

    if (prev_frame.has_value()) {
      if (polls_missed_since_prev > 0) row.quality |= quality::kStaleBaseline;

      const obs::ObsSpan span("pipeline.identify", st_identify);
      const match::Identification id =
          identifier.identify(terminal, s, *prev_frame, frame, sky);
      row.num_candidates = id.num_candidates;
      row.trajectory_pixels = id.trajectory_pixels;
      row.confidence = id.confidence;
      row.abstain = id.abstain;
      if (id.abstained()) row.quality |= quality::kAbstained;
      if (id.reset_detected) row.quality |= quality::kResetDetected;
      if (id.best.has_value()) {
        row.inferred_norad = id.best->norad_id;
        row.dtw = id.best->dtw;
      }
      row.sky = usable_only(std::move(sky));
      result.rows.push_back(std::move(row));
    }
    prev_frame = std::move(frame);
    polls_missed_since_prev = 0;
  }

  result.report.wall_ns = run_span.elapsed_ns();
  result.summarize();

  const PipelineMetrics& metrics = PipelineMetrics::get();
  metrics.runs.add();
  metrics.slots.add(result.report.slots);
  metrics.decided.add(result.report.decided);
  metrics.abstained.add(result.report.abstained);
  metrics.degraded.add(result.report.degraded);
  return result;
}

CampaignData InferencePipeline::run_inferred_campaign(
    double duration_sec) const {
  const obs::ObsSpan span("pipeline.run_inferred_campaign");
  CampaignData data;
  data.report.kind = "campaign";
  data.report.label = "inferred";
  for (const ground::Terminal& t : scenario_.terminals()) {
    data.terminal_names.push_back(t.name());
  }

  double confidence_weighted = 0.0;
  for (std::size_t ti = 0; ti < scenario_.terminals().size(); ++ti) {
    const PipelineResult inferred = run(ti, duration_sec);
    // absorb() sums values; means need decided-slot weighting instead.
    confidence_weighted += inferred.report.value_or("mean_confidence", 0.0) *
                           static_cast<double>(inferred.report.decided);
    data.report.absorb(inferred.report);
    append_inferred_rows(data, inferred, ti);
  }
  data.report.add_value(
      "mean_confidence",
      data.report.decided == 0
          ? 0.0
          : confidence_weighted / static_cast<double>(data.report.decided));
  return data;
}

void InferencePipeline::append_inferred_rows(CampaignData& data,
                                             const PipelineResult& result,
                                             std::size_t terminal_index) const {
  for (const SlotIdentification& row : result.rows) {
    SlotObs obs = observe_slot(scenario_, terminal_index, row.slot, row.sky,
                               row.inferred_norad);
    obs.quality = row.quality;
    obs.confidence = row.inferred_norad.has_value() ? row.confidence : 0.0;
    data.slots.push_back(std::move(obs));
  }
}

}  // namespace starlab::core
