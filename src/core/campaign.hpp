#pragma once

// A measurement campaign: the longitudinal slot-by-slot observation record
// that all of §5's analyses and §6's model are computed from.
//
// For every 15-second slot and every terminal, the campaign records the
// available (usable) candidate set — azimuth, elevation, launch age, sunlit
// state of each — plus which satellite the (black-box) global scheduler
// picked. In the real study the "picked" column comes from the §4
// obstruction-map pipeline; here it can come either from that same pipeline
// (see core/pipeline.hpp) or directly from the oracle, which §4's >99 %
// agreement validates as interchangeable for the downstream analyses.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.hpp"
#include "obs/run_report.hpp"

namespace starlab::core {

/// Per-slot data-quality flags. A clean slot carries 0; degraded inputs set
/// bits so downstream statistics can filter or weight instead of silently
/// absorbing damaged observations.
namespace quality {
inline constexpr std::uint32_t kFrameMissing = 1u << 0;  ///< frame poll failed
inline constexpr std::uint32_t kStaleBaseline = 1u << 1;  ///< XOR ran against a frame older than slot-1
inline constexpr std::uint32_t kFrameCorrupted = 1u << 2;  ///< observed frame had flipped bits
inline constexpr std::uint32_t kAbstained = 1u << 3;  ///< identifier declined to answer
inline constexpr std::uint32_t kResetDetected = 1u << 4;  ///< unnoticed reboot between frames
inline constexpr std::uint32_t kCandidateDropout = 1u << 5;  ///< >=1 candidate dropped from this slot
inline constexpr std::uint32_t kQuarantined = 1u << 6;  ///< supervised task gave up; gap observation
inline constexpr std::uint32_t kShedSlot = 1u << 7;  ///< dropped by degradation load-shedding

/// All flags with their machine-readable names, in bit order — the keys the
/// observability layer uses in RunReport quality counts.
struct Flag {
  std::uint32_t bit;
  const char* name;
};
inline constexpr Flag kFlags[] = {
    {kFrameMissing, "frame_missing"},     {kStaleBaseline, "stale_baseline"},
    {kFrameCorrupted, "frame_corrupted"}, {kAbstained, "abstained"},
    {kResetDetected, "reset_detected"},   {kCandidateDropout, "candidate_dropout"},
    {kQuarantined, "quarantined"},        {kShedSlot, "shed_slot"},
};

/// Name of a single flag bit; nullptr for unknown bits.
[[nodiscard]] inline const char* flag_name(std::uint32_t bit) {
  for (const Flag& f : kFlags) {
    if (f.bit == bit) return f.name;
  }
  return nullptr;
}

/// Per-flag row counts, one entry per kFlags in bit order (RunReport's
/// `quality` table).
using Counts = std::vector<std::pair<std::string, std::uint64_t>>;

/// How many of `rows` (anything with a `quality` bit mask) carry each flag.
template <class Rows>
[[nodiscard]] Counts tally(const Rows& rows) {
  Counts counts;
  for (const Flag& f : kFlags) counts.emplace_back(f.name, 0);
  for (const auto& row : rows) {
    for (std::size_t f = 0; f < std::size(kFlags); ++f) {
      if ((row.quality & kFlags[f].bit) != 0) ++counts[f].second;
    }
  }
  return counts;
}

/// The count `counts` holds for one flag bit; 0 for unknown bits.
[[nodiscard]] std::uint64_t count(const Counts& counts, std::uint32_t bit);
}  // namespace quality

/// One available satellite as recorded for one slot.
struct CandidateObs {
  int norad_id = 0;
  double azimuth_deg = 0.0;
  double elevation_deg = 0.0;
  double age_days = 0.0;
  bool sunlit = true;
};

/// One (terminal, slot) observation.
struct SlotObs {
  time::SlotIndex slot = 0;
  std::size_t terminal_index = 0;
  double unix_mid = 0.0;      ///< slot midpoint
  double local_hour = 0.0;    ///< local solar hour at the terminal
  std::vector<CandidateObs> available;  ///< usable candidates
  int chosen = -1;            ///< index into `available`; -1 if none
  std::uint32_t quality = 0;  ///< quality:: flags; 0 == clean observation
  /// Confidence in `chosen`: 1 for oracle-labeled campaigns, the match
  /// confidence for §4-inferred ones, 0 when there is no choice.
  double confidence = 1.0;

  [[nodiscard]] bool has_choice() const { return chosen >= 0; }
  [[nodiscard]] const CandidateObs& chosen_candidate() const {
    return available[static_cast<std::size_t>(chosen)];
  }
};

struct CampaignData {
  std::vector<std::string> terminal_names;
  std::vector<SlotObs> slots;
  /// Run summary filled by run_campaign / run_inferred_campaign: stage
  /// timings (when observability is on), slot/quality counts, the fault
  /// plan in force. Not persisted by campaign_io; write it with
  /// io::report_io if the run should land in a JSONL log.
  obs::RunReport report;

  /// Observations of one terminal only.
  [[nodiscard]] std::vector<const SlotObs*> for_terminal(
      std::size_t terminal_index) const;
};

struct CampaignConfig {
  double duration_hours = 24.0;
  /// Start this many hours after the scenario epoch (lets a study carve
  /// disjoint train/evaluation windows from one world).
  double start_offset_hours = 0.0;
  /// Sub-sample the slot grid: record every k-th slot. §5's statistics are
  /// about per-slot *distributions*, so thinning trades time for variance
  /// without bias.
  int slot_stride = 1;
  /// Fault plan for this run; unset falls back to the scenario's plan. The
  /// campaign applies the per-slot satellite-dropout injector (candidates
  /// vanish before the scheduler sees them).
  std::optional<fault::FaultPlan> faults;

  // --- resilience hooks (defaults reproduce the historical behavior) ---

  /// Exact half-open window [record_begin, record_end) into the recorded
  /// slot list (the stride-thinned slots the full config would record).
  /// record_end == 0 disables the slice. The resilience layer shards a
  /// campaign with these *integer* indices — hour arithmetic would not
  /// round-trip — so concatenating shard outputs in order reproduces the
  /// unsharded run bit for bit.
  std::size_t record_begin = 0;
  std::size_t record_end = 0;
  /// Compute every k-th record of the (possibly sliced) window; the widened
  /// grid of the degradation ladder. Skipped records are simply absent from
  /// the output (the shard runner emits flagged gap rows for them).
  std::size_t record_step = 1;
};

/// The observation of terminal `terminal_index` in `slot`: the slot
/// midpoint and its local solar hour, the usable entries of `candidates` as
/// the available set, and `chosen` at the first of them whose NORAD id is
/// `chosen_norad` (none when absent or unset). Confidence is 1 with a choice
/// and 0 without; quality is clean. Every campaign row is built here.
[[nodiscard]] SlotObs observe_slot(const Scenario& scenario,
                                   std::size_t terminal_index,
                                   time::SlotIndex slot,
                                   std::span<const ground::Candidate> candidates,
                                   std::optional<int> chosen_norad);

/// Run a campaign over the scenario's terminals starting at its TLE epoch.
[[nodiscard]] CampaignData run_campaign(const Scenario& scenario,
                                        const CampaignConfig& config = {});

/// Number of slots the *full* config would record (slice fields ignored) —
/// the index domain of record_begin/record_end.
[[nodiscard]] std::size_t campaign_recorded_slots(const Scenario& scenario,
                                                  const CampaignConfig& config);

/// Slot id of recorded-slot index `record` under the full config.
[[nodiscard]] time::SlotIndex campaign_record_slot(const Scenario& scenario,
                                                   const CampaignConfig& config,
                                                   std::size_t record);

/// Recompute data.report's slot summary (slot/decided/degraded counts, the
/// per-quality-flag table, the fault plan in force) from data.slots. Shared
/// by run_campaign and the resilience shard assembler so a resumed
/// campaign's report counts match an uninterrupted run's exactly.
void finalize_campaign_report(CampaignData& data, const fault::FaultPlan& plan);

}  // namespace starlab::core
