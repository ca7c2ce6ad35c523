// perfbench driver: runs one benchmark workload of starlab's paper data path
// in-process and writes its raw measurements as JSON for run.py, which turns
// them into the named metrics and applies the output checks.
//
//   perfbench_driver --workload identify|survey|inferred-gen2 --seed N
//                    --seconds S --trace 0|1 --out DIR
//
// Every run starts with one untimed warm-up repetition on the next seed
// (seed + 1), whose outputs run.py checks like the timed seed's, then sets up
// the timed seed's scenario several times (setup samples).
//
// --trace 0: repeat the workload back to back (closed loop, one process,
// serial over terminals) until S seconds have been timed. Every repetition
// gets a fresh InferencePipeline so no memoized state carries over from one
// repetition to the next. Each repetition records its wall-clock and process
// CPU time, and the CPU time of a fixed calibration kernel run right before
// and after it, by which run.py rescales the CPU time to a reference core.
//
// --trace 1: run one plain repetition as the reference, then the decomposed
// ("traced") phase four times, twice with the obs layer off and twice with
// profiling and tracing on; the wall-clock difference is the tracing
// overhead. Layers the library only reaches inside a monolithic entry point
// (the slot loops of InferencePipeline::run and run_campaign) are replayed
// here through the same public functions, each call wrapped in an
// obs::ObsSpan named after its layer, and the replay's answers are compared
// with the entry point's rows.
//
// perfbench_driver only calls public library functions. It never installs an
// EphemerisCache and reads neither EphemerisCache::Stats nor RunReport
// stages, so it keeps working while those internals change.

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/characterizer.hpp"
#include "core/pipeline.hpp"
#include "core/scenario.hpp"
#include "core/scheduler_model.hpp"
#include "exec/thread_pool.hpp"
#include "match/identifier.hpp"
#include "obs/clock.hpp"
#include "obs/config.hpp"
#include "obs/json_writer.hpp"
#include "obs/prof.hpp"
#include "obs/trace.hpp"
#include "obsmap/painter.hpp"

using namespace starlab;

namespace {

// ---------------------------------------------------------------- workloads

enum class Workload { kIdentify, kSurvey, kInferredGen2 };

/// Fixed sizes of one repetition. The identification windows are long
/// enough that the >= 0.99 accuracy check rests on ~450 compared slots, so a
/// single misidentification cannot fail it on an unlucky seed.
constexpr double kIdentifyMinutes = 30.0;       // per terminal, Gen1
constexpr double kInferredGen2Minutes = 30.0;   // per terminal, Gen2
constexpr double kSurveyHours = 2.0;            // oracle campaign, Gen1
constexpr int kSetupFirstBatch = 5;
constexpr int kSetupBatch = 3;  // before every timed repetition
constexpr int kMinRepetitions = 3;

core::ModelTrainConfig survey_train_config() {
  core::ModelTrainConfig cfg;
  ml::GridSearchSpace grid;
  grid.num_trees = {20};
  grid.max_depth = {10, 14};
  grid.min_samples_leaf = {2};
  cfg.grid = grid;
  cfg.folds = 3;
  return cfg;
}

core::CampaignConfig survey_campaign_config() {
  core::CampaignConfig cfg;
  cfg.duration_hours = kSurveyHours;
  return cfg;
}

core::ScenarioConfig scenario_config(Workload w, std::uint64_t seed) {
  core::ScenarioConfig cfg = core::Scenario::default_config(1.0);
  cfg.constellation.gen2 = w == Workload::kInferredGen2;
  cfg.seed = seed;
  cfg.constellation.seed = seed;
  return cfg;
}

bool uses_pipeline(Workload w) { return w != Workload::kSurvey; }

// ------------------------------------------------------------------ digests

/// FNV-1a over the exact bytes of every output value, so two repetitions
/// agree only when their outputs are bit-identical.
class Digest {
 public:
  template <typename T>
  void add(const T& v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (const unsigned char b : bytes) {
      h_ = (h_ ^ b) * 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void digest_rows(Digest& d, const std::vector<core::SlotIdentification>& rows) {
  for (const core::SlotIdentification& r : rows) {
    d.add(r.slot);
    d.add(r.truth_norad.value_or(-1));
    d.add(r.inferred_norad.value_or(-1));
    d.add(r.dtw);
    d.add(r.num_candidates);
    d.add(r.trajectory_pixels);
    d.add(r.quality);
    d.add(r.confidence);
    d.add(static_cast<int>(r.abstain));
  }
}

void digest_campaign(Digest& d, const core::CampaignData& data) {
  for (const core::SlotObs& s : data.slots) {
    d.add(s.slot);
    d.add(s.terminal_index);
    d.add(s.unix_mid);
    d.add(s.local_hour);
    d.add(s.chosen);
    d.add(s.quality);
    d.add(s.confidence);
    for (const core::CandidateObs& c : s.available) {
      d.add(c.norad_id);
      d.add(c.azimuth_deg);
      d.add(c.elevation_deg);
      d.add(c.age_days);
      d.add(c.sunlit);
    }
  }
}

/// Every §5 statistic, per terminal, folded into the digest.
void characterize(Digest& d, const core::CampaignData& data,
                  const constellation::Catalog& catalog) {
  const core::SchedulerCharacterizer ch(data, catalog);
  for (std::size_t t = 0; t < ch.num_terminals(); ++t) {
    const core::AoeStats aoe = ch.aoe_stats(t);
    d.add(aoe.median_gap_deg);
    d.add(aoe.frac_chosen_45_90);
    const core::AzimuthStats az = ch.azimuth_stats(t);
    d.add(az.north_share_chosen);
    d.add(az.nw_share_chosen);
    d.add(ch.launch_preference(t).pearson_r);
    const core::SunlitStats sun = ch.sunlit_stats(t);
    d.add(sun.sunlit_pick_rate);
    d.add(sun.median_aoe_sunlit_chosen);
    for (const core::DiurnalStats::HourBin& b : ch.diurnal_stats(t).by_hour) {
      d.add(b.mean_pick_aoe_deg);
    }
  }
}

// --------------------------------------------------------- quality counters

struct Quality {
  std::uint64_t slots = 0;     ///< terminal-slots with an output row
  std::uint64_t decided = 0;   ///< rows naming a satellite
  std::uint64_t compared = 0;  ///< decided rows with an oracle allocation
  std::uint64_t correct = 0;   ///< compared rows naming the oracle's pick
  double forest_top5 = 0.0;
  double baseline_top5 = 0.0;
};

void count_rows(Quality& q, const std::vector<core::SlotIdentification>& rows) {
  for (const core::SlotIdentification& r : rows) {
    ++q.slots;
    if (r.inferred_norad.has_value()) ++q.decided;
    if (r.truth_norad.has_value() && r.inferred_norad.has_value()) {
      ++q.compared;
      if (r.correct()) ++q.correct;
    }
  }
}

/// Inferred campaigns keep no ground truth, so each pick is checked against
/// the oracle's own allocation for that terminal and slot.
void count_inferred(Quality& q, const core::Scenario& scenario,
                    const core::CampaignData& data) {
  for (const core::SlotObs& s : data.slots) {
    ++q.slots;
    if (!s.has_choice()) continue;
    ++q.decided;
    const std::optional<scheduler::Allocation> truth =
        scenario.global_scheduler().allocate(
            scenario.terminal(s.terminal_index), s.slot);
    if (!truth.has_value()) continue;
    ++q.compared;
    if (truth->norad_id == s.chosen_candidate().norad_id) ++q.correct;
  }
}

void count_campaign(Quality& q, const core::CampaignData& data) {
  for (const core::SlotObs& s : data.slots) {
    ++q.slots;
    if (s.has_choice()) ++q.decided;
  }
}

// -------------------------------------------------------------- repetitions

/// CPU time on `clock`. Linux leaves out the time a virtualised host kept
/// the vCPU from running (steal time), which wall clocks count.
std::uint64_t cpu_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t process_cpu_ns() { return cpu_ns(CLOCK_PROCESS_CPUTIME_ID); }
std::uint64_t thread_cpu_ns() { return cpu_ns(CLOCK_THREAD_CPUTIME_ID); }

// ------------------------------------------------------------- calibration

/// A fixed floating-point kernel that stands in for one core's speed: a
/// Kepler-equation solve and an anomaly conversion over 8,192 orbits for 12
/// steps (sin/cos/sqrt/atan2 in dependent chains, like SGP4 and DTW), then a
/// strided gather. It uses nothing from the library, so no change to the
/// library changes its cost.
double kepler_kernel() {
  constexpr int kOrbits = 8192;
  std::vector<double> mean_anomaly(kOrbits);
  std::vector<double> ecc(kOrbits);
  std::vector<double> out(kOrbits);
  for (int i = 0; i < kOrbits; ++i) {
    mean_anomaly[i] = 0.001 * i;
    ecc[i] = 0.0001 + 0.00001 * (i % 97);
  }
  double acc = 0.0;
  for (int step = 0; step < 12; ++step) {
    for (int i = 0; i < kOrbits; ++i) {
      const double m = mean_anomaly[i];
      const double e = ecc[i];
      double ea = m;
      for (int k = 0; k < 4; ++k) {
        ea -= (ea - e * std::sin(ea) - m) / (1.0 - e * std::cos(ea));
      }
      const double x = std::cos(ea) - e;
      const double y = std::sqrt(1.0 - e * e) * std::sin(ea);
      out[i] = std::atan2(y, x) + std::sqrt(x * x + y * y);
      mean_anomaly[i] = m + 0.0123;
    }
    for (std::uint32_t i = 0; i < kOrbits; i += 7) {
      acc += out[(i * 2654435761u) % kOrbits];
    }
  }
  return acc;
}

volatile double g_kernel_sink = 0.0;

/// Median thread CPU time of three kernel runs: how long this core takes
/// for the fixed kernel right now. Neighbours on a shared host change that
/// by tens of percent from one minute to the next.
std::uint64_t kernel_cpu_ns() {
  std::uint64_t ns[3];
  for (std::uint64_t& v : ns) {
    const std::uint64_t t0 = thread_cpu_ns();
    g_kernel_sink = kepler_kernel();
    v = thread_cpu_ns() - t0;
  }
  std::sort(ns, ns + 3);
  return ns[1];
}

struct Repetition {
  std::uint64_t wall_ns = 0;   ///< whole repetition
  std::uint64_t cpu_ns = 0;    ///< whole repetition, process CPU time
  std::uint64_t slot_ns = 0;   ///< the entry point that walks the slots
  std::uint64_t slot_cpu_ns = 0;  ///< the same, process CPU time
  std::uint64_t train_ns = 0;  ///< survey: train_scheduler_model
  std::uint64_t terminal_slots = 0;
  std::string digest;
  Quality quality;
};

Repetition run_repetition(Workload w, const core::Scenario& scenario,
                          bool count_quality) {
  Repetition rep;
  Digest digest;
  const std::uint64_t t0 = obs::monotonic_ns();
  const std::uint64_t c0 = process_cpu_ns();
  switch (w) {
    case Workload::kIdentify: {
      const core::InferencePipeline pipeline(scenario);
      const std::uint64_t start = obs::monotonic_ns();
      const std::uint64_t cpu_start = process_cpu_ns();
      for (std::size_t t = 0; t < scenario.terminals().size(); ++t) {
        const core::PipelineResult res =
            pipeline.run(t, kIdentifyMinutes * 60.0);
        rep.terminal_slots += res.rows.size();
        digest_rows(digest, res.rows);
        if (count_quality) count_rows(rep.quality, res.rows);
      }
      rep.slot_ns = obs::monotonic_ns() - start;
      rep.slot_cpu_ns = process_cpu_ns() - cpu_start;
      rep.wall_ns = rep.slot_ns;
      rep.cpu_ns = rep.slot_cpu_ns;
      break;
    }
    case Workload::kSurvey: {
      const core::CampaignData data =
          core::run_campaign(scenario, survey_campaign_config());
      const std::uint64_t t1 = obs::monotonic_ns();
      rep.slot_cpu_ns = process_cpu_ns() - c0;
      characterize(digest, data, scenario.catalog());
      const std::uint64_t t2 = obs::monotonic_ns();
      const core::ModelEvaluation eval =
          core::train_scheduler_model(data, survey_train_config());
      const std::uint64_t t3 = obs::monotonic_ns();
      rep.cpu_ns = process_cpu_ns() - c0;
      rep.slot_ns = t1 - t0;
      rep.train_ns = t3 - t2;
      rep.wall_ns = t3 - t0;
      rep.terminal_slots = data.slots.size();
      digest_campaign(digest, data);
      for (std::size_t k = 0; k < eval.forest_top_k.size(); ++k) {
        digest.add(eval.forest_top_k[k]);
        digest.add(eval.baseline_top_k[k]);
      }
      if (count_quality) {
        count_campaign(rep.quality, data);
        if (eval.forest_top_k.size() >= 5) {
          rep.quality.forest_top5 = eval.forest_top_k[4];
          rep.quality.baseline_top5 = eval.baseline_top_k[4];
        }
      }
      break;
    }
    case Workload::kInferredGen2: {
      const core::InferencePipeline pipeline(scenario);
      const std::uint64_t start = obs::monotonic_ns();
      const std::uint64_t cpu_start = process_cpu_ns();
      const core::CampaignData data =
          pipeline.run_inferred_campaign(kInferredGen2Minutes * 60.0);
      const std::uint64_t t1 = obs::monotonic_ns();
      rep.slot_cpu_ns = process_cpu_ns() - cpu_start;
      characterize(digest, data, scenario.catalog());
      const std::uint64_t t2 = obs::monotonic_ns();
      rep.cpu_ns = process_cpu_ns() - cpu_start;
      rep.slot_ns = t1 - start;
      rep.wall_ns = t2 - start;
      rep.terminal_slots = data.slots.size();
      digest_campaign(digest, data);
      if (count_quality) count_inferred(rep.quality, scenario, data);
      break;
    }
  }
  rep.digest = digest.hex();
  return rep;
}

// ------------------------------------------------------------ traced phase

/// Counts taken where the replayed work happens.
struct Counters {
  std::uint64_t sats_propagated = 0;    ///< snapshots returned by propagate_all
  std::uint64_t candidates = 0;         ///< candidates_from_snapshots entries
  std::uint64_t usable_candidates = 0;  ///< of those, usable()
  std::uint64_t identify_calls = 0;
  std::uint64_t candidates_scored = 0;  ///< Identification::num_candidates
  std::uint64_t abstained = 0;
  std::uint64_t dataset_rows = 0;
  std::uint64_t replay_rows = 0;        ///< replayed rows compared
  std::uint64_t replay_mismatches = 0;
  std::uint64_t digest_mismatches = 0;  ///< traced vs untraced outputs
};

bool same_row(const core::SlotIdentification& a,
              const core::SlotIdentification& b) {
  return a.slot == b.slot && a.truth_norad == b.truth_norad &&
         a.inferred_norad == b.inferred_norad && a.dtw == b.dtw &&
         a.num_candidates == b.num_candidates &&
         a.trajectory_pixels == b.trajectory_pixels && a.quality == b.quality &&
         a.confidence == b.confidence && a.abstain == b.abstain;
}

/// InferencePipeline::run's per-slot calls for one terminal on clean frames,
/// each wrapped in its layer's span. Returns the rows run() would emit.
std::vector<core::SlotIdentification> replay_pipeline(
    const core::Scenario& scenario, const core::InferencePipeline& pipeline,
    std::size_t terminal_index, double duration_sec, Counters& c) {
  const ground::Terminal& terminal = scenario.terminal(terminal_index);
  const time::SlotGrid& grid = scenario.grid();
  const constellation::Catalog& catalog = scenario.catalog();
  obsmap::MapRecorder recorder(catalog, terminal, grid,
                               obsmap::TrajectoryPainter(pipeline.geometry()));
  const match::SatelliteIdentifier identifier(catalog, pipeline.geometry(),
                                              grid);
  const core::PipelineConfig defaults;
  const time::SlotIndex first = scenario.first_slot();
  const auto num_slots =
      static_cast<time::SlotIndex>(duration_sec / grid.period_seconds());
  const auto slots_per_reset = static_cast<time::SlotIndex>(
      defaults.reset_interval_sec / grid.period_seconds());

  std::vector<core::SlotIdentification> rows;
  std::optional<obsmap::ObstructionMap> prev_frame;
  for (time::SlotIndex s = first; s < first + num_slots; ++s) {
    if (slots_per_reset > 0 && (s - first) % slots_per_reset == 0 &&
        s != first) {
      recorder.reset();
      prev_frame.reset();
    }
    const time::JulianDate jd =
        time::JulianDate::from_unix_seconds(grid.slot_mid(s));
    std::vector<constellation::Catalog::Snapshot> snaps;
    {
      const obs::ObsSpan span("constellation.propagate_all");
      snaps = catalog.propagate_all(jd);
    }
    c.sats_propagated += snaps.size();
    std::vector<ground::Candidate> candidates;
    {
      const obs::ObsSpan span("ground.candidates");
      candidates = terminal.candidates_from_snapshots(catalog, snaps, jd);
    }
    c.candidates += candidates.size();
    c.usable_candidates += static_cast<std::uint64_t>(std::count_if(
        candidates.begin(), candidates.end(),
        [](const ground::Candidate& k) { return k.usable(); }));
    std::optional<scheduler::Allocation> truth;
    {
      const obs::ObsSpan span("scheduler.allocate");
      truth = scenario.global_scheduler().allocate_from(terminal, s,
                                                         candidates);
    }
    std::optional<obsmap::ObstructionMap> frame;
    {
      const obs::ObsSpan span("obsmap.record");
      frame = recorder.record_slot(truth);
    }
    if (prev_frame.has_value()) {
      std::optional<match::Identification> id;
      {
        const obs::ObsSpan span("match.identify");
        id = identifier.identify(terminal, s, *prev_frame, *frame, snaps);
      }
      ++c.identify_calls;
      c.candidates_scored += static_cast<std::uint64_t>(id->num_candidates);
      core::SlotIdentification row;
      row.slot = s;
      if (truth.has_value()) row.truth_norad = truth->norad_id;
      row.num_candidates = id->num_candidates;
      row.trajectory_pixels = id->trajectory_pixels;
      row.confidence = id->confidence;
      row.abstain = id->abstain;
      if (id->abstained()) {
        ++c.abstained;
        row.quality |= core::quality::kAbstained;
      }
      if (id->reset_detected) row.quality |= core::quality::kResetDetected;
      if (id->best.has_value()) {
        row.inferred_norad = id->best->norad_id;
        row.dtw = id->best->dtw;
      }
      rows.push_back(row);
    }
    prev_frame = std::move(*frame);
  }
  return rows;
}

void compare_rows(const std::vector<core::SlotIdentification>& replayed,
                  const std::vector<core::SlotIdentification>& expected,
                  Counters& c) {
  c.replay_rows += replayed.size();
  const std::size_t n = std::min(replayed.size(), expected.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!same_row(replayed[i], expected[i])) ++c.replay_mismatches;
  }
  c.replay_mismatches += std::max(replayed.size(), expected.size()) - n;
}

/// run_campaign's per-slot calls (one propagation shared by the slot's
/// terminals), compared with the campaign's recorded candidates and picks.
void replay_campaign(const core::Scenario& scenario,
                     const core::CampaignData& data, Counters& c) {
  const constellation::Catalog& catalog = scenario.catalog();
  const std::size_t terminals = scenario.terminals().size();
  for (std::size_t i = 0; i + terminals <= data.slots.size(); i += terminals) {
    const time::SlotIndex s = data.slots[i].slot;
    const time::JulianDate jd =
        time::JulianDate::from_unix_seconds(scenario.grid().slot_mid(s));
    std::vector<constellation::Catalog::Snapshot> snaps;
    {
      const obs::ObsSpan span("constellation.propagate_all");
      snaps = catalog.propagate_all(jd);
    }
    c.sats_propagated += snaps.size();
    for (std::size_t ti = 0; ti < terminals; ++ti) {
      const ground::Terminal& terminal = scenario.terminal(ti);
      std::vector<ground::Candidate> candidates;
      {
        const obs::ObsSpan span("ground.candidates");
        candidates = terminal.candidates_from_snapshots(catalog, snaps, jd);
      }
      std::optional<scheduler::Allocation> alloc;
      {
        const obs::ObsSpan span("scheduler.allocate");
        alloc = scenario.global_scheduler().allocate_from(terminal, s,
                                                          candidates);
      }
      c.candidates += candidates.size();
      std::vector<int> usable;
      for (const ground::Candidate& k : candidates) {
        if (k.usable()) usable.push_back(k.sky.norad_id);
      }
      c.usable_candidates += usable.size();

      const core::SlotObs& row = data.slots[i + ti];
      bool same = row.slot == s && row.terminal_index == ti &&
                  row.available.size() == usable.size() &&
                  row.has_choice() == alloc.has_value();
      for (std::size_t k = 0; same && k < usable.size(); ++k) {
        same = row.available[k].norad_id == usable[k];
      }
      if (same && alloc.has_value()) {
        same = row.chosen_candidate().norad_id == alloc->norad_id;
      }
      ++c.replay_rows;
      if (!same) ++c.replay_mismatches;
    }
  }
}

/// The workload's work split at layer boundaries, under one root span. Run
/// with the obs layer off and on; `expected_digest` is the untraced
/// repetition's output digest, which the traced assembly must reproduce.
void traced_phase(Workload w, const core::Scenario& scenario,
                  const std::string& expected_digest, Counters& c) {
  const obs::ObsSpan root("bench.traced");
  Digest digest;
  switch (w) {
    case Workload::kIdentify: {
      const core::InferencePipeline pipeline(scenario);
      for (std::size_t t = 0; t < scenario.terminals().size(); ++t) {
        std::optional<core::PipelineResult> res;
        {
          const obs::ObsSpan span("core.pipeline_run");
          res = pipeline.run(t, kIdentifyMinutes * 60.0);
        }
        digest_rows(digest, res->rows);
        compare_rows(
            replay_pipeline(scenario, pipeline, t, kIdentifyMinutes * 60.0, c),
            res->rows, c);
      }
      break;
    }
    case Workload::kSurvey: {
      std::optional<core::CampaignData> data;
      {
        const obs::ObsSpan span("core.run_campaign");
        data = core::run_campaign(scenario, survey_campaign_config());
      }
      replay_campaign(scenario, *data, c);
      {
        const obs::ObsSpan span("analysis.characterize");
        characterize(digest, *data, scenario.catalog());
      }
      {
        const obs::ObsSpan span("ml.build_dataset");
        c.dataset_rows += core::ClusterFeaturizer().build_dataset(*data).size();
      }
      std::optional<core::ModelEvaluation> eval;
      {
        const obs::ObsSpan span("ml.train");
        eval = core::train_scheduler_model(*data, survey_train_config());
      }
      digest_campaign(digest, *data);
      for (std::size_t k = 0; k < eval->forest_top_k.size(); ++k) {
        digest.add(eval->forest_top_k[k]);
        digest.add(eval->baseline_top_k[k]);
      }
      break;
    }
    case Workload::kInferredGen2: {
      const core::InferencePipeline pipeline(scenario);
      core::CampaignData data;
      for (const ground::Terminal& t : scenario.terminals()) {
        data.terminal_names.push_back(t.name());
      }
      for (std::size_t t = 0; t < scenario.terminals().size(); ++t) {
        std::optional<core::PipelineResult> res;
        {
          const obs::ObsSpan span("core.pipeline_run");
          res = pipeline.run(t, kInferredGen2Minutes * 60.0);
        }
        {
          const obs::ObsSpan span("core.append_inferred_rows");
          pipeline.append_inferred_rows(data, *res, t);
        }
        compare_rows(replay_pipeline(scenario, pipeline, t,
                                     kInferredGen2Minutes * 60.0, c),
                     res->rows, c);
      }
      {
        const obs::ObsSpan span("analysis.characterize");
        characterize(digest, data, scenario.catalog());
      }
      digest_campaign(digest, data);
      break;
    }
  }
  if (digest.hex() != expected_digest) ++c.digest_mismatches;
}

// ------------------------------------------------------------------- output

struct Args {
  Workload workload = Workload::kIdentify;
  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
};

Args parse_args(int argc, char** argv) {
  Args a;
  if (argc % 2 == 0) throw std::invalid_argument("every option needs a value");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload_name = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--out") {
      a.out_dir = val;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.workload_name == "identify") {
    a.workload = Workload::kIdentify;
  } else if (a.workload_name == "survey") {
    a.workload = Workload::kSurvey;
  } else if (a.workload_name == "inferred-gen2") {
    a.workload = Workload::kInferredGen2;
  } else {
    throw std::invalid_argument("unknown workload '" + a.workload_name + "'");
  }
  if (a.out_dir.empty()) throw std::invalid_argument("--out is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << text;
  if (!f) throw std::runtime_error("cannot write " + path);
}

void write_quality(obs::JsonWriter& w, const char* key, const Quality& q) {
  w.key(key);
  w.begin_object();
  w.key("slots"); w.value(q.slots);
  w.key("decided"); w.value(q.decided);
  w.key("compared"); w.value(q.compared);
  w.key("correct"); w.value(q.correct);
  w.key("forest_top5"); w.value(q.forest_top5);
  w.key("baseline_top5"); w.value(q.baseline_top5);
  w.end_object();
}

void write_counters(obs::JsonWriter& w, const Counters& c) {
  w.key("counters");
  w.begin_object();
  w.key("sats_propagated"); w.value(c.sats_propagated);
  w.key("candidates"); w.value(c.candidates);
  w.key("usable_candidates"); w.value(c.usable_candidates);
  w.key("identify_calls"); w.value(c.identify_calls);
  w.key("candidates_scored"); w.value(c.candidates_scored);
  w.key("abstained"); w.value(c.abstained);
  w.key("dataset_rows"); w.value(c.dataset_rows);
  w.key("replay_rows"); w.value(c.replay_rows);
  w.key("replay_mismatches"); w.value(c.replay_mismatches);
  w.key("digest_mismatches"); w.value(c.digest_mismatches);
  w.end_object();
}

std::uint64_t peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss);
}

/// Pins the process to the highest CPU it may run on, so the calibration
/// kernel measures the core that runs the work. Best effort: without the
/// pin the figures are only noisier.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    (void)sched_setaffinity(0, sizeof(one), &one);
    return;
  }
}

struct SetupSample {
  std::uint64_t wall_ns = 0;
  std::uint64_t cpu_ns = 0;    ///< process CPU time
  std::uint64_t kernel_ns = 0; ///< kernel_cpu_ns() right after the batch
};

/// Builds the workload's Scenario (+ InferencePipeline, which is dropped)
/// `n` times, appending one sample per build; returns the last scenario.
std::unique_ptr<core::Scenario> set_up(Workload w, std::uint64_t seed, int n,
                                       std::vector<SetupSample>& samples) {
  std::unique_ptr<core::Scenario> scenario;
  for (int i = 0; i < n; ++i) {
    scenario.reset();
    SetupSample sample;
    const std::uint64_t t0 = obs::monotonic_ns();
    const std::uint64_t c0 = process_cpu_ns();
    scenario = std::make_unique<core::Scenario>(scenario_config(w, seed));
    if (uses_pipeline(w)) {
      const core::InferencePipeline pipeline(*scenario);
      (void)pipeline;
    }
    sample.cpu_ns = process_cpu_ns() - c0;
    sample.wall_ns = obs::monotonic_ns() - t0;
    samples.push_back(sample);
  }
  const std::uint64_t kernel_ns = kernel_cpu_ns();
  for (std::size_t i = samples.size() - static_cast<std::size_t>(n);
       i < samples.size(); ++i) {
    samples[i].kernel_ns = kernel_ns;
  }
  return scenario;
}

int run(const Args& args) {
  // One pool thread, pinned to one CPU. On a shared 4-core host the vCPUs
  // are not always running at the same time: with a wider pool the caller
  // then runs every chunk itself, so the CPU time of the same repetition
  // switches between two levels (7.1 s and 8.4 s on inferred-gen2) and its
  // wall-clock by more. The parallel paths still run, inline.
  const int threads = 1;
  exec::configure({threads});
  pin_to_one_cpu();
  obs::set_config(obs::Config::disabled());

  // Warm-up and second-seed check: one untimed repetition on the next seed
  // (page faults, lazy statics), whose outputs are checked like the timed
  // seed's, so every run's checks cover two seeds.
  const std::uint64_t check_seed = args.seed + 1;
  Quality check_quality;
  {
    const core::Scenario check_scenario(
        scenario_config(args.workload, check_seed));
    check_quality =
        run_repetition(args.workload, check_scenario, true).quality;
  }

  // Set-up samples: a first batch, whose last scenario the workload runs
  // on, then (with --trace 0) a batch before every repetition, so that the
  // samples span the run as the repetitions do.
  std::vector<SetupSample> setup;
  const std::unique_ptr<core::Scenario> scenario =
      set_up(args.workload, args.seed, kSetupFirstBatch, setup);

  obs::JsonWriter w;
  w.begin_object();
  w.key("workload"); w.value(args.workload_name);
  w.key("seed"); w.value(args.seed);
  w.key("check_seed"); w.value(check_seed);
  w.key("threads"); w.value(static_cast<std::uint64_t>(threads));
  w.key("catalog_size");
  w.value(static_cast<std::uint64_t>(scenario->catalog().size()));
  write_quality(w, "check_quality", check_quality);

  if (!args.trace) {
    w.key("reps");
    w.begin_array();
    const std::uint64_t budget_ns =
        static_cast<std::uint64_t>(args.seconds * 1e9);
    // Every repetition's outputs must equal the first's, whose quality
    // counts (taken outside its clocks) are the timed seed's.
    std::uint64_t timed_ns = 0;
    Quality quality;
    for (int n = 0; n < kMinRepetitions || timed_ns < budget_ns; ++n) {
      (void)set_up(args.workload, args.seed, kSetupBatch, setup);
      const std::uint64_t kernel_before = kernel_cpu_ns();
      const Repetition rep = run_repetition(args.workload, *scenario, n == 0);
      const std::uint64_t kernel_after = kernel_cpu_ns();
      if (n == 0) quality = rep.quality;
      timed_ns += rep.wall_ns;
      w.begin_object();
      w.key("wall_ns"); w.value(rep.wall_ns);
      w.key("cpu_ns"); w.value(rep.cpu_ns);
      w.key("kernel_ns"); w.value((kernel_before + kernel_after) / 2);
      w.key("slot_ns"); w.value(rep.slot_ns);
      w.key("slot_cpu_ns"); w.value(rep.slot_cpu_ns);
      w.key("train_ns"); w.value(rep.train_ns);
      w.key("terminal_slots"); w.value(rep.terminal_slots);
      w.key("digest"); w.value(rep.digest);
      w.end_object();
    }
    w.end_array();
    write_quality(w, "quality", quality);
  } else {
    // The untraced outputs the traced phase must reproduce.
    const Repetition reference =
        run_repetition(args.workload, *scenario, true);
    write_quality(w, "quality", reference.quality);
    // Passes in off, on, on, off order, so a drift across the run (the
    // first pass is the first to touch the replay's code and allocations)
    // cancels out of the overhead. The profile and counters kept are those
    // of the last traced pass.
    std::uint64_t wall_off_ns = 0;
    std::uint64_t wall_on_ns = 0;
    std::uint64_t untraced_mismatches = 0;
    Counters counters;
    for (const bool on : {false, true, true, false}) {
      Counters c;
      if (on) {
        obs::Profiler::instance().clear();
        obs::TraceRecorder::instance().clear();
        obs::set_config({false, true, true});
      }
      const std::uint64_t t0 = obs::monotonic_ns();
      traced_phase(args.workload, *scenario, reference.digest, c);
      const std::uint64_t dt = obs::monotonic_ns() - t0;
      obs::set_config(obs::Config::disabled());
      if (on) {
        wall_on_ns += dt;
        counters = c;
      } else {
        wall_off_ns += dt;
        untraced_mismatches += c.replay_mismatches + c.digest_mismatches;
      }
    }
    write_file(args.out_dir + "/profile.json",
               obs::Profiler::instance().report_json());
    write_file(args.out_dir + "/trace.json",
               obs::TraceRecorder::instance().chrome_trace_json());
    w.key("wall_off_ns"); w.value(wall_off_ns);
    w.key("wall_on_ns"); w.value(wall_on_ns);
    w.key("untraced_mismatches"); w.value(untraced_mismatches);
    write_counters(w, counters);
  }
  w.key("setup");
  w.begin_array();
  for (const SetupSample& sample : setup) {
    w.begin_object();
    w.key("wall_ns"); w.value(sample.wall_ns);
    w.key("cpu_ns"); w.value(sample.cpu_ns);
    w.key("kernel_ns"); w.value(sample.kernel_ns);
    w.end_object();
  }
  w.end_array();
  w.key("peak_rss_kb"); w.value(peak_rss_kb());
  w.end_object();
  write_file(args.out_dir + "/result.json", w.str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
