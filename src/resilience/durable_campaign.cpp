#include "resilience/durable_campaign.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "check/thread_annotations.hpp"
#include "exec/thread_pool.hpp"
#include "fault/fault_plan.hpp"
#include "io/journal_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "resilience/checkpoint.hpp"

namespace starlab::resilience {

namespace {

struct DurableMetrics {
  obs::Counter resumed_shards;

  static const DurableMetrics& get() {
    static const DurableMetrics m = [] {
      DurableMetrics x;
      x.resumed_shards = obs::MetricsRegistry::instance().counter(
          "starlab_resilience_resumed_shards_total",
          "Campaign shards recovered from a journal instead of recomputed");
      return x;
    }();
    return m;
  }
};

/// A flagged gap observation for recorded slot `record` of `terminal_index`
/// — the shape a shed or quarantined (slot, terminal) degrades to. Slot id,
/// midpoint and local hour stay real (downstream statistics can still bin
/// the gap by time); there are no candidates and no choice.
core::SlotObs gap_row(const core::Scenario& scenario,
                      const core::CampaignConfig& config, std::size_t record,
                      std::size_t terminal_index, std::uint32_t flags) {
  core::SlotObs obs = core::observe_slot(
      scenario, terminal_index,
      core::campaign_record_slot(scenario, config, record), {}, std::nullopt);
  obs.quality = flags;
  return obs;
}

/// Gap rows for every (record, terminal) in [begin, end), in the same
/// (record-major, terminal-minor) order run_campaign emits real rows.
std::vector<core::SlotObs> gap_rows(const core::Scenario& scenario,
                                    const core::CampaignConfig& config,
                                    std::size_t begin, std::size_t end,
                                    std::uint32_t flags) {
  std::vector<core::SlotObs> rows;
  const std::size_t terminals = scenario.terminals().size();
  rows.reserve((end - begin) * terminals);
  for (std::size_t r = begin; r < end; ++r) {
    for (std::size_t ti = 0; ti < terminals; ++ti) {
      rows.push_back(gap_row(scenario, config, r, ti, flags));
    }
  }
  return rows;
}

/// Compute the rows of records [begin, end) at the given degradation level.
/// kNone/kShedObservability compute everything; kWidenGrid computes every
/// 2nd record and fills the skipped ones with kShedSlot gaps; kAbstain
/// computes nothing. `shed` counts the records degraded to gaps.
std::vector<core::SlotObs> compute_shard_rows(
    const core::Scenario& scenario, const core::CampaignConfig& config,
    std::size_t begin, std::size_t end, DegradeLevel level, std::size_t* shed) {
  if (level >= DegradeLevel::kAbstain) {
    *shed += end - begin;
    return gap_rows(scenario, config, begin, end, core::quality::kShedSlot);
  }

  core::CampaignConfig sub = config;
  sub.record_begin = begin;
  sub.record_end = end;
  sub.record_step = level >= DegradeLevel::kWidenGrid ? 2 : 1;
  core::CampaignData part = core::run_campaign(scenario, sub);
  if (sub.record_step == 1) return std::move(part.slots);

  // Interleave kShedSlot gaps for the records the widened grid skipped,
  // keeping the rows in record order.
  std::vector<core::SlotObs> rows;
  rows.reserve((end - begin) * scenario.terminals().size());
  std::size_t src = 0;
  const std::size_t terminals = scenario.terminals().size();
  for (std::size_t r = begin; r < end; ++r) {
    if ((r - begin) % sub.record_step == 0) {
      for (std::size_t ti = 0; ti < terminals; ++ti) {
        rows.push_back(std::move(part.slots[src++]));
      }
    } else {
      ++*shed;
      for (std::size_t ti = 0; ti < terminals; ++ti) {
        rows.push_back(gap_row(scenario, config, r, ti,
                               core::quality::kShedSlot));
      }
    }
  }
  return rows;
}

}  // namespace

DurableCampaignResult run_campaign_durable(const core::Scenario& scenario,
                                           const core::CampaignConfig& config,
                                           const DurableCampaignConfig& durable) {
  const obs::ObsSpan span("resilience.run_campaign_durable");
  if (config.record_begin != 0 || config.record_end != 0 ||
      config.record_step != 1) {
    throw std::invalid_argument(
        "run_campaign_durable owns the campaign slice fields; pass them at "
        "their defaults");
  }

  DurableCampaignResult result;
  core::CampaignData& data = result.data;
  data.report.kind = "campaign";
  data.report.label = "durable";
  for (const ground::Terminal& t : scenario.terminals()) {
    data.terminal_names.push_back(t.name());
  }
  const fault::FaultPlan& plan =
      config.faults.has_value() ? *config.faults : scenario.fault_plan();

  const std::size_t total = core::campaign_recorded_slots(scenario, config);
  const std::size_t num_shards =
      total == 0 ? 0 : (total + kShardSlots - 1) / kShardSlots;
  result.shards = num_shards;

  const std::string header =
      encode_campaign_header(scenario, config, kShardSlots);
  std::vector<std::optional<std::vector<core::SlotObs>>> shards(num_shards);

  // --- replay: recover completed shards from the journal ---
  const bool journaled = !durable.journal_path.empty();
  bool header_on_disk = false;
  if (journaled) {
    if (!durable.resume) {
      io::remove_journal(durable.journal_path);
    } else {
      const io::JournalReplay replay = io::replay_journal(durable.journal_path);
      if (!replay.records.empty()) {
        if (replay.records.front() != header) {
          throw std::runtime_error(
              "campaign journal does not match this scenario/config; "
              "refusing to resume: " + durable.journal_path);
        }
        header_on_disk = true;
        for (std::size_t i = 1; i < replay.records.size(); ++i) {
          std::optional<DecodedShard> shard = decode_shard(replay.records[i]);
          if (!shard.has_value()) {
            throw std::runtime_error(
                "campaign journal record is not a shard checkpoint: " +
                durable.journal_path);
          }
          if (shard->shard_index < num_shards &&
              !shards[shard->shard_index].has_value()) {
            shards[shard->shard_index] = std::move(shard->rows);
            ++result.resumed_shards;
          }
        }
      }
    }
  }

  // --- journal writer: repair the torn tail, then append as shards finish ---
  // One writer shared by every shard chunk; appends (and the writer's
  // internal segment state behind them) are serialized by `mu`.
  std::unique_ptr<io::JournalWriter> owned_writer;
  struct Journal {
    check::Mutex mu;
    io::JournalWriter* writer GUARDED_BY(mu) = nullptr;  ///< null: no journal
    bool dead GUARDED_BY(mu) = false;                    ///< set by a kill
  } journal;
  if (journaled) {
    io::JournalConfig jc;
    jc.path = durable.journal_path;
    owned_writer = std::make_unique<io::JournalWriter>(jc, durable.kill_point);
    const check::MutexLock lock(journal.mu);
    journal.writer = owned_writer.get();
    if (!header_on_disk) journal.writer->append(header);
  }

  std::vector<std::size_t> missing;
  for (std::size_t s = 0; s < num_shards; ++s) {
    if (!shards[s].has_value()) missing.push_back(s);
  }
  result.computed_shards = missing.size();

  // --- supervised shard execution over the exec pool ---
  Supervisor supervisor(durable.supervisor);
  struct Shed {
    check::Mutex mu;
    std::size_t records GUARDED_BY(mu) = 0;
  } shed_total;
  exec::default_pool().parallel_for(missing.size(), [&](std::size_t i) {
    const std::size_t shard = missing[i];
    const std::size_t begin = shard * kShardSlots;
    const std::size_t end = std::min(total, begin + kShardSlots);

    std::vector<core::SlotObs> rows;
    std::size_t shed = 0;
    const TaskOutcome outcome = supervisor.run(
        static_cast<std::uint64_t>(shard),
        [&](DegradeLevel level) {
          shed = 0;
          rows = compute_shard_rows(scenario, config, begin, end, level, &shed);
        });
    if (!outcome.ok) {
      // Quarantined: the shard's records become flagged gaps. They are
      // journaled like real rows, so a resume reproduces the same gaps.
      shed = end - begin;
      rows = gap_rows(scenario, config, begin, end,
                      core::quality::kQuarantined);
    }
    if (shed != 0) {
      const check::MutexLock lock(shed_total.mu);
      shed_total.records += shed;
    }

    {
      const check::MutexLock lock(journal.mu);
      if (journal.writer != nullptr && !journal.dead) {
        // Shed fsync once the ladder says to (never re-arm: the level is
        // monotone over a supervisor's life).
        if (supervisor.level() >= DegradeLevel::kShedObservability) {
          journal.writer->set_fsync(false);
        }
        try {
          journal.writer->append(encode_shard(shard, rows));
        } catch (const fault::WriteKilled&) {
          // The simulated process death. Mark the journal dead so sibling
          // chunks skip their appends (a dead process appends nothing)
          // instead of raising secondary errors, and let the kill propagate
          // out of parallel_for as the run's failure.
          journal.dead = true;
          throw;
        }
      }
    }
    shards[shard] = std::move(rows);
  });

  if (owned_writer != nullptr) owned_writer->close();

  // --- assemble in shard order; counts recomputed exactly like run_campaign ---
  for (std::optional<std::vector<core::SlotObs>>& shard : shards) {
    for (core::SlotObs& row : *shard) data.slots.push_back(std::move(row));
  }
  core::finalize_campaign_report(data, plan);

  result.quarantined_shards =
      static_cast<std::size_t>(supervisor.quarantined());
  {
    // parallel_for has joined; the lock is uncontended and exists so the
    // annotated tally is read the same way it was written.
    const check::MutexLock lock(shed_total.mu);
    result.shed_records = shed_total.records;
  }
  result.final_level = supervisor.level();
  if (result.resumed_shards != 0) {
    DurableMetrics::get().resumed_shards.add(result.resumed_shards);
    data.report.events.push_back(
        "resume shards=" + std::to_string(result.resumed_shards) + " of " +
        std::to_string(num_shards) + " from journal");
  }
  for (std::string& event : supervisor.events()) {
    data.report.events.push_back(std::move(event));
  }
  data.report.add_value("resilience.retries",
                        static_cast<double>(supervisor.retries()));
  data.report.add_value("resilience.quarantined",
                        static_cast<double>(supervisor.quarantined()));
  data.report.add_value("resilience.resumed_shards",
                        static_cast<double>(result.resumed_shards));
  data.report.add_value("resilience.shed_records",
                        static_cast<double>(result.shed_records));
  return result;
}

core::CampaignData run_inferred_campaign_supervised(
    const core::InferencePipeline& pipeline, double duration_sec,
    const SupervisorConfig& config) {
  const obs::ObsSpan span("resilience.run_inferred_campaign_supervised");
  const core::Scenario& scenario = pipeline.scenario();

  core::CampaignData data;
  data.report.kind = "campaign";
  data.report.label = "inferred-supervised";
  for (const ground::Terminal& t : scenario.terminals()) {
    data.terminal_names.push_back(t.name());
  }

  Supervisor supervisor(config);
  double confidence_weighted = 0.0;
  std::vector<std::size_t> abstained;
  for (std::size_t ti = 0; ti < scenario.terminals().size(); ++ti) {
    if (supervisor.level() >= DegradeLevel::kAbstain) {
      abstained.push_back(ti);
      continue;
    }
    core::PipelineResult inferred;
    const TaskOutcome outcome = supervisor.run(
        static_cast<std::uint64_t>(ti),
        [&](DegradeLevel) { inferred = pipeline.run(ti, duration_sec); });
    if (!outcome.ok) continue;  // quarantined terminal: no rows, logged above
    // absorb() sums values; means need decided-slot weighting instead.
    confidence_weighted += inferred.report.value_or("mean_confidence", 0.0) *
                           static_cast<double>(inferred.report.decided);
    data.report.absorb(inferred.report);
    pipeline.append_inferred_rows(data, inferred, ti);
  }
  data.report.add_value(
      "mean_confidence",
      data.report.decided == 0
          ? 0.0
          : confidence_weighted / static_cast<double>(data.report.decided));

  for (std::string& event : supervisor.events()) {
    data.report.events.push_back(std::move(event));
  }
  for (const std::size_t ti : abstained) {
    data.report.events.push_back("abstain terminal=" + std::to_string(ti) +
                                 ": load shed");
  }
  data.report.add_value("resilience.retries",
                        static_cast<double>(supervisor.retries()));
  data.report.add_value("resilience.quarantined",
                        static_cast<double>(supervisor.quarantined()));
  return data;
}

}  // namespace starlab::resilience
