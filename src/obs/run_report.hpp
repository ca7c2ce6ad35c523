#pragma once

// Machine-readable summary of one run — a pipeline pass, a campaign, a
// model training, or a bench section. Carries per-stage wall-clock, slot
// quality-flag counts, abstention reasons, the fault plan in force, and
// free-form named values (accuracy, ns/op, ...). Serialized as one JSON
// line via io::report_io so runs append to a JSONL log; the schema is
// documented in docs/FORMATS.md.

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace starlab::obs {

/// Accumulated wall-clock of one named stage of a run: the total and count
/// of the ObsSpans that timed it.
struct StageStat {
  std::string name;
  std::uint64_t wall_ns = 0;
  std::uint64_t calls = 0;
};

struct RunReport {
  std::string kind;     ///< "pipeline" | "campaign" | "train" | "bench"
  std::string label;    ///< e.g. terminal name, bench section
  std::string git_sha;  ///< build provenance; "" when unknown
  std::uint64_t wall_ns = 0;  ///< whole-run wall-clock (0: timing was off)
  /// Deque, not vector: stage() hands out long-lived pointers (held across
  /// the whole run by the ObsSpans timing each stage), so growth must not
  /// relocate.
  std::deque<StageStat> stages;

  // Slot summary (pipeline/campaign runs; zero elsewhere).
  std::uint64_t slots = 0;
  std::uint64_t decided = 0;    ///< slots with an answer/choice
  std::uint64_t abstained = 0;  ///< slots explicitly declined
  std::uint64_t degraded = 0;   ///< slots carrying any quality flag
  std::uint64_t compared = 0;   ///< slots with both truth and inference
  std::uint64_t correct = 0;    ///< compared slots answered correctly
  double accuracy = 0.0;        ///< correct / compared (0 when none)

  /// Per-quality-flag slot counts, e.g. ("frame_missing", 3).
  std::vector<std::pair<std::string, std::uint64_t>> quality;
  /// Per-abstention-reason slot counts, e.g. ("low_margin", 2).
  std::vector<std::pair<std::string, std::uint64_t>> abstain_reasons;
  /// The fault plan in force (fault::format_fault_plan; "" = clean run).
  std::string fault_plan;
  /// Free-form named numbers (accuracy variants, ns/op, config knobs...).
  std::vector<std::pair<std::string, double>> values;
  /// Chronological resilience decisions ("retry shard=3 attempt=2", "degrade
  /// level=shed_observability", ...). Serialized only when non-empty, so
  /// reports from unsupervised runs keep their historical byte shape.
  std::vector<std::string> events;

  /// Find-or-create a stage by name.
  StageStat& stage(std::string_view name);

  void add_value(std::string name, double value);
  [[nodiscard]] double value_or(std::string_view name, double fallback) const;

  /// Increment a named count in `quality` / `abstain_reasons`.
  static void bump(std::vector<std::pair<std::string, std::uint64_t>>& counts,
                   std::string_view name, std::uint64_t by = 1);

  /// Merge another run into this one: wall and stage times add, slot counts
  /// add, named counts add, values add, accuracy is recomputed. Used when a
  /// multi-terminal run aggregates its per-terminal sub-runs.
  void absorb(const RunReport& other);

  /// One-line JSON object (no trailing newline). Field order is fixed so
  /// serialization is deterministic.
  [[nodiscard]] std::string to_json() const;
};

}  // namespace starlab::obs
