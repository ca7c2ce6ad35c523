#include "core/campaign.hpp"

#include <algorithm>

#include "check/contracts.hpp"
#include "exec/thread_pool.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injectors.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sun/solar_ephemeris.hpp"

namespace starlab::core {

namespace {

/// Pre-registered campaign metrics (one-time registration, lock-free adds).
struct CampaignMetrics {
  obs::Counter runs, slots, chosen, dropout_flagged;

  static const CampaignMetrics& get() {
    static const CampaignMetrics m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
      CampaignMetrics x;
      x.runs = reg.counter("starlab_campaign_runs_total",
                           "Campaigns executed by run_campaign");
      x.slots = reg.counter("starlab_campaign_slots_total",
                            "Slot observations recorded across campaigns");
      x.chosen = reg.counter("starlab_campaign_chosen_total",
                             "Slot observations with a scheduler choice");
      x.dropout_flagged =
          reg.counter("starlab_campaign_dropout_slots_total",
                      "Slot observations flagged kCandidateDropout");
      return x;
    }();
    return m;
  }
};

}  // namespace

std::uint64_t quality::count(const Counts& counts, std::uint32_t bit) {
  const char* name = flag_name(bit);
  for (const auto& [flag, n] : counts) {
    if (name != nullptr && flag == name) return n;
  }
  return 0;
}

SlotObs observe_slot(const Scenario& scenario, std::size_t terminal_index,
                     time::SlotIndex slot,
                     std::span<const ground::Candidate> candidates,
                     std::optional<int> chosen_norad) {
  SlotObs obs;
  obs.slot = slot;
  obs.terminal_index = terminal_index;
  obs.unix_mid = scenario.grid().slot_mid(slot);
  obs.local_hour = sun::local_solar_hour(
      scenario.terminal(terminal_index).site().longitude_deg, obs.unix_mid);
  // The usable candidates are the paper's "available satellites".
  for (const ground::Candidate& c : candidates) {
    if (!c.usable()) continue;
    if (chosen_norad.has_value() && !obs.has_choice() &&
        c.sky.norad_id == *chosen_norad) {
      obs.chosen = static_cast<int>(obs.available.size());
    }
    obs.available.push_back({c.sky.norad_id, c.sky.look.azimuth_deg,
                             c.sky.look.elevation_deg, c.sky.age_days,
                             c.sky.sunlit});
  }
  if (!obs.has_choice()) obs.confidence = 0.0;
  return obs;
}

std::vector<const SlotObs*> CampaignData::for_terminal(
    std::size_t terminal_index) const {
  std::vector<const SlotObs*> out;
  for (const SlotObs& s : slots) {
    if (s.terminal_index == terminal_index) out.push_back(&s);
  }
  return out;
}

namespace {

/// The slot arithmetic run_campaign has always used, factored so the
/// record-index helpers below agree with it exactly.
struct RecordWindow {
  time::SlotIndex first = 0;
  time::SlotIndex num_slots = 0;
  time::SlotIndex stride = 1;

  [[nodiscard]] std::size_t records() const {
    if (num_slots <= 0 || stride <= 0) return 0;
    return static_cast<std::size_t>((num_slots + stride - 1) / stride);
  }
  [[nodiscard]] time::SlotIndex slot(std::size_t record) const {
    return first + static_cast<time::SlotIndex>(record) * stride;
  }
};

RecordWindow record_window(const Scenario& scenario,
                           const CampaignConfig& config) {
  const time::SlotGrid& grid = scenario.grid();
  RecordWindow w;
  w.first = scenario.first_slot() +
            static_cast<time::SlotIndex>(config.start_offset_hours * 3600.0 /
                                         grid.period_seconds());
  w.num_slots = static_cast<time::SlotIndex>(config.duration_hours * 3600.0 /
                                             grid.period_seconds());
  w.stride = config.slot_stride;
  return w;
}

}  // namespace

std::size_t campaign_recorded_slots(const Scenario& scenario,
                                    const CampaignConfig& config) {
  return record_window(scenario, config).records();
}

time::SlotIndex campaign_record_slot(const Scenario& scenario,
                                     const CampaignConfig& config,
                                     std::size_t record) {
  return record_window(scenario, config).slot(record);
}

void finalize_campaign_report(CampaignData& data,
                              const fault::FaultPlan& plan) {
  obs::RunReport& report = data.report;
  report.slots = data.slots.size();
  report.decided = 0;
  report.degraded = 0;
  for (const SlotObs& slot : data.slots) {
    if (slot.has_choice()) ++report.decided;
    if (slot.quality != 0) ++report.degraded;
  }
  report.quality = quality::tally(data.slots);
  report.fault_plan = fault::format_fault_plan(plan);
}

CampaignData run_campaign(const Scenario& scenario,
                          const CampaignConfig& config) {
  const obs::ObsSpan run_span("campaign.run");
  const bool timed = obs::enabled();

  CampaignData data;
  data.report.kind = "campaign";
  data.report.label = "oracle";
  obs::StageStat* st_candidates =
      timed ? &data.report.stage("candidates") : nullptr;
  obs::StageStat* st_allocate = timed ? &data.report.stage("allocate") : nullptr;
  for (const ground::Terminal& t : scenario.terminals()) {
    data.terminal_names.push_back(t.name());
  }

  const time::SlotGrid& grid = scenario.grid();
  const RecordWindow window = record_window(scenario, config);
  const scheduler::GlobalScheduler& global = scenario.global_scheduler();
  const constellation::Catalog& catalog = scenario.catalog();
  const fault::FaultPlan& plan =
      config.faults.has_value() ? *config.faults : scenario.fault_plan();
  const fault::SlotDropoutInjector dropout(plan);
  const bool inject_dropout =
      plan.intensity > 0.0 && plan.dropout.rate > 0.0;

  // Every (slot, terminal) observation depends only on (slot, terminal):
  // the oracle is stateless in both, the dropout injector is hash-keyed, and
  // each terminal queries the catalog's spatial index on its own. Slots are
  // therefore independent work items, partitioned over the exec pool and
  // flattened back in slot order — bit-identical to the former serial loop
  // at any thread count. The record_* fields select an index sub-window of
  // that same list, so a sliced run computes exactly the rows the full run
  // would at those indices.
  const std::size_t total_records = window.records();
  std::size_t record_begin = config.record_begin;
  std::size_t record_end =
      config.record_end == 0 ? total_records
                             : std::min(config.record_end, total_records);
  if (record_begin > record_end) record_begin = record_end;
  const std::size_t record_step =
      config.record_step == 0 ? 1 : config.record_step;
  std::vector<time::SlotIndex> slot_ids;
  for (std::size_t r = record_begin; r < record_end; r += record_step) {
    slot_ids.push_back(window.slot(r));
  }
  // A slot's observations and stage cells. Only the worker that owns the
  // slot writes them, and the serial flatten below sums the cells into the
  // report, so the stage path needs no lock.
  struct SlotWork {
    std::vector<SlotObs> rows;
    obs::StageStat candidates, allocate;
  };
  std::vector<SlotWork> per_slot(slot_ids.size());

  // Each chunk pays queueing, while a slot costs only one spatial-index
  // query and one allocation per terminal — so never split below four slots
  // per chunk. Short benchmark slices (a dozen slots) otherwise shard into
  // single-slot chunks on wide pools and run slower at eight threads than
  // at one. The partition only changes which worker computes a slot, never
  // the per-slot results, so output stays bit-identical.
  constexpr std::size_t kMinSlotsPerChunk = 4;
  exec::default_pool().parallel_for_chunks(
      slot_ids.size(), kMinSlotsPerChunk,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t k = begin; k < end; ++k) {
          SlotWork& work = per_slot[k];
          const time::SlotIndex s = slot_ids[k];
          const time::JulianDate jd =
              time::JulianDate::from_unix_seconds(grid.slot_mid(s));

          for (std::size_t ti = 0; ti < scenario.terminals().size(); ++ti) {
            const ground::Terminal& terminal = scenario.terminal(ti);
            std::vector<ground::Candidate> candidates = [&] {
              const obs::ObsSpan span("campaign.candidates",
                                      &work.candidates);
              return terminal.candidates(catalog, jd);
            }();

            bool any_dropped = false;
            if (inject_dropout) {
              const auto is_dropped = [&](const ground::Candidate& c) {
                return dropout.dropped(c.sky.norad_id, s);
              };
              const auto removed = std::remove_if(candidates.begin(),
                                                  candidates.end(), is_dropped);
              any_dropped = removed != candidates.end();
              candidates.erase(removed, candidates.end());
            }

            const std::optional<scheduler::Allocation> alloc = [&] {
              const obs::ObsSpan span("campaign.allocate", &work.allocate);
              return global.allocate_from(terminal, s, candidates);
            }();
            SlotObs slot_obs = observe_slot(
                scenario, ti, s, candidates,
                alloc.has_value() ? std::optional<int>(alloc->norad_id)
                                  : std::nullopt);
            if (any_dropped) slot_obs.quality |= quality::kCandidateDropout;
            work.rows.push_back(std::move(slot_obs));
          }
        }
      });

  const auto add_cell = [](obs::StageStat* stage, const obs::StageStat& cell) {
    stage->wall_ns += cell.wall_ns;
    stage->calls += cell.calls;
  };
  for (SlotWork& work : per_slot) {
    for (SlotObs& row : work.rows) data.slots.push_back(std::move(row));
    if (timed) {
      add_cell(st_candidates, work.candidates);
      add_cell(st_allocate, work.allocate);
    }
  }
  // Campaign time must advance: the flattened observations are in slot order,
  // so their mid-slot instants are non-decreasing. A violation means the
  // parallel chunks were reassembled out of order.
  STARLAB_INVARIANT(
      std::is_sorted(data.slots.begin(), data.slots.end(),
                     [](const SlotObs& a, const SlotObs& b) {
                       return a.unix_mid < b.unix_mid;
                     }),
      "campaign slot observations are not in time order");

  // Run summary: slot counts, per-flag counts, the plan in force. Computed
  // once here so consumers never re-scan the slot vector.
  finalize_campaign_report(data, plan);
  obs::RunReport& report = data.report;
  report.wall_ns = run_span.elapsed_ns();

  const CampaignMetrics& metrics = CampaignMetrics::get();
  metrics.runs.add();
  metrics.slots.add(report.slots);
  metrics.chosen.add(report.decided);
  metrics.dropout_flagged.add(
      quality::count(report.quality, quality::kCandidateDropout));
  return data;
}

}  // namespace starlab::core
