#pragma once

// Crash-safe campaign execution: checkpoint/resume + supervised shards.
//
// run_campaign_durable partitions a campaign's recorded slots into shards,
// runs each shard as a supervised task on the exec pool (retry, quarantine,
// degradation — see resilience/supervisor.hpp), and appends
// every finished shard to a CRC-guarded journal (io/journal_io.hpp). A run
// killed at ANY byte offset of that journal resumes by replaying the valid
// prefix: completed shards come back bit-identical from their hexfloat
// checkpoint records, only the missing shards are recomputed, and because
// every (slot, terminal) observation is a pure function of (slot,
// terminal), the assembled CampaignData is byte-identical to an
// uninterrupted run. With journaling disabled (empty journal_path) and no
// faults the output is bit-identical to core::run_campaign.
//
// Quarantined shards and load-shed records degrade to gap rows flagged
// quality::kQuarantined / quality::kShedSlot — gaps are journaled like any
// other rows, so a resumed storm-damaged run reproduces exactly the gaps
// the first process decided on.

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/campaign.hpp"
#include "core/pipeline.hpp"
#include "resilience/supervisor.hpp"

namespace starlab::resilience {

/// Recorded slots per shard (the checkpoint granularity). Smaller shards
/// lose less work to a crash and cost more journal appends.
inline constexpr std::size_t kShardSlots = 16;

struct DurableCampaignConfig {
  /// Fault storms and pre-tripped rungs for the supervised shards.
  // starlint:allow(option-reachability): test seam for task faults and rungs
  SupervisorConfig supervisor;
  /// Journal base path; empty runs supervised but unjournaled. The journal
  /// keeps io::JournalConfig's segment size and per-append fdatasync (shed
  /// at kShedObservability).
  std::string journal_path;
  /// Replay an existing journal before running; false starts clean
  /// (removes any leftover journal first).
  bool resume = true;
  /// Crash gate for torn-write tests (non-owning; see fault::WriteKillPoint).
  // starlint:allow(option-reachability): test seam that reaches a torn journal
  fault::WriteKillPoint* kill_point = nullptr;
};

struct DurableCampaignResult {
  core::CampaignData data;
  std::size_t shards = 0;            ///< total shards in this campaign
  std::size_t resumed_shards = 0;    ///< replayed from the journal
  std::size_t computed_shards = 0;   ///< executed this run
  std::size_t quarantined_shards = 0;
  std::size_t shed_records = 0;      ///< records degraded to gap rows
  DegradeLevel final_level = DegradeLevel::kNone;
};

/// Run `config` durably. `config`'s resilience hook fields (record_begin/
/// record_end/record_step) must be at their defaults — the runner owns them
/// for shard slicing and throws std::invalid_argument otherwise.
/// Propagates fault::WriteKilled from the kill-point gate (the simulated
/// process death) and std::runtime_error on a journal/config mismatch.
[[nodiscard]] DurableCampaignResult run_campaign_durable(
    const core::Scenario& scenario, const core::CampaignConfig& config,
    const DurableCampaignConfig& durable);

/// Supervised §4 data path: run_inferred_campaign with each per-terminal
/// pipeline pass wrapped in supervised retry/quarantine. A quarantined
/// terminal contributes no rows (recorded in the report events); at
/// kAbstain the remaining terminals are skipped outright.
[[nodiscard]] core::CampaignData run_inferred_campaign_supervised(
    const core::InferencePipeline& pipeline, double duration_sec,
    const SupervisorConfig& config);

}  // namespace starlab::resilience
