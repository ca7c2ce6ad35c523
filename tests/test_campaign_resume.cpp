#include "resilience/durable_campaign.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "io/campaign_io.hpp"
#include "io/journal_io.hpp"
#include "resilience/checkpoint.hpp"
#include "test_helpers.hpp"

namespace starlab::resilience {
namespace {

using starlab::testing::tiny_scenario;

/// 62 recorded slots x 4 terminals — four shards, small enough that the
/// kill-offset sweep stays fast.
core::CampaignConfig short_campaign() {
  core::CampaignConfig config;
  config.duration_hours = 0.26;
  return config;
}

DurableCampaignConfig durable_config(const std::string& journal) {
  DurableCampaignConfig config;
  config.journal_path = journal;
  return config;
}

std::string journal_path(const char* name) {
  const std::string base =
      std::string(::testing::TempDir()) + "starlab_resume_" + name;
  io::remove_journal(base);
  return base;
}

/// The byte-identity oracle: the full CSV export of the campaign data.
std::string campaign_bytes(const core::CampaignData& data) {
  std::ostringstream out;
  io::save_campaign(out, data);
  return std::move(out).str();
}

void expect_same_report_counts(const obs::RunReport& a,
                               const obs::RunReport& b) {
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.decided, b.decided);
  EXPECT_EQ(a.degraded, b.degraded);
  ASSERT_EQ(a.quality.size(), b.quality.size());
  for (std::size_t i = 0; i < a.quality.size(); ++i) {
    EXPECT_EQ(a.quality[i].first, b.quality[i].first);
    EXPECT_EQ(a.quality[i].second, b.quality[i].second) << a.quality[i].first;
  }
}

TEST(CampaignResume, UnjournaledDurableRunIsBitIdenticalToPlainRun) {
  const core::CampaignData plain =
      core::run_campaign(tiny_scenario(), short_campaign());
  const DurableCampaignResult durable = run_campaign_durable(
      tiny_scenario(), short_campaign(), DurableCampaignConfig{});
  EXPECT_EQ(campaign_bytes(plain), campaign_bytes(durable.data));
  expect_same_report_counts(plain.report, durable.data.report);
  EXPECT_EQ(durable.resumed_shards, 0u);
  EXPECT_EQ(durable.computed_shards, durable.shards);
  EXPECT_EQ(durable.final_level, DegradeLevel::kNone);
}

TEST(CampaignResume, JournalingOnIsBitIdenticalToJournalingOff) {
  const std::string path = journal_path("on_off");
  const DurableCampaignResult off = run_campaign_durable(
      tiny_scenario(), short_campaign(), DurableCampaignConfig{});
  const DurableCampaignResult on = run_campaign_durable(
      tiny_scenario(), short_campaign(), durable_config(path));
  EXPECT_EQ(campaign_bytes(off.data), campaign_bytes(on.data));
  io::remove_journal(path);
}

TEST(CampaignResume, SecondRunResumesEveryShardFromTheJournal) {
  const std::string path = journal_path("full_resume");
  const DurableCampaignResult first = run_campaign_durable(
      tiny_scenario(), short_campaign(), durable_config(path));
  ASSERT_GT(first.shards, 1u);
  const DurableCampaignResult second = run_campaign_durable(
      tiny_scenario(), short_campaign(), durable_config(path));
  EXPECT_EQ(second.resumed_shards, first.shards);
  EXPECT_EQ(second.computed_shards, 0u);
  EXPECT_EQ(campaign_bytes(first.data), campaign_bytes(second.data));
  expect_same_report_counts(first.data.report, second.data.report);
  EXPECT_EQ(second.data.report.value_or("resilience.resumed_shards", -1.0),
            static_cast<double>(first.shards));
  io::remove_journal(path);
}

TEST(CampaignResume, KillAtSampledByteOffsetsThenResumeIsByteIdentical) {
  // The acceptance sweep: kill the journaled run at >= 20 byte offsets
  // spread over the whole journal, resume, and demand byte-identical
  // campaign data and identical report counts every time.
  const std::string path = journal_path("kill_sweep");
  const core::CampaignData baseline =
      core::run_campaign(tiny_scenario(), short_campaign());
  const std::string baseline_bytes = campaign_bytes(baseline);

  // Measure the journal's total size with one uninterrupted run.
  const DurableCampaignResult full = run_campaign_durable(
      tiny_scenario(), short_campaign(), durable_config(path));
  std::uint64_t journal_bytes = 0;
  for (const std::string& seg : io::journal_segment_paths(path)) {
    std::ifstream in(seg, std::ios::binary | std::ios::ate);
    journal_bytes += static_cast<std::uint64_t>(in.tellg());
  }
  ASSERT_GT(journal_bytes, 0u);
  EXPECT_EQ(campaign_bytes(full.data), baseline_bytes);

  constexpr int kOffsets = 24;
  for (int k = 0; k < kOffsets; ++k) {
    io::remove_journal(path);
    const std::uint64_t offset = journal_bytes * static_cast<std::uint64_t>(k) /
                                 static_cast<std::uint64_t>(kOffsets);
    // Phase 1: run until the kill point tears the journal at `offset`.
    fault::WriteKillPoint kill(offset);
    DurableCampaignConfig cfg = durable_config(path);
    cfg.kill_point = &kill;
    bool killed = false;
    try {
      const DurableCampaignResult r =
          run_campaign_durable(tiny_scenario(), short_campaign(), cfg);
      // A kill budget >= the bytes this run writes can finish cleanly.
      EXPECT_EQ(campaign_bytes(r.data), baseline_bytes) << "offset=" << offset;
    } catch (const fault::WriteKilled&) {
      killed = true;
    }
    ASSERT_TRUE(killed || offset >= journal_bytes - 1) << "offset=" << offset;

    // Phase 2: a fresh process resumes from whatever survived.
    const DurableCampaignResult resumed = run_campaign_durable(
        tiny_scenario(), short_campaign(), durable_config(path));
    EXPECT_EQ(campaign_bytes(resumed.data), baseline_bytes)
        << "offset=" << offset;
    expect_same_report_counts(baseline.report, resumed.data.report);
  }
  io::remove_journal(path);
}

TEST(CampaignResume, MismatchedConfigRefusesToResume) {
  const std::string path = journal_path("mismatch");
  (void)run_campaign_durable(tiny_scenario(), short_campaign(),
                             durable_config(path));
  core::CampaignConfig other = short_campaign();
  other.duration_hours = 0.1;  // a different campaign shape
  EXPECT_THROW((void)run_campaign_durable(tiny_scenario(), other,
                                          durable_config(path)),
               std::runtime_error);
  // resume=false starts clean instead.
  DurableCampaignConfig fresh = durable_config(path);
  fresh.resume = false;
  const DurableCampaignResult r =
      run_campaign_durable(tiny_scenario(), other, fresh);
  EXPECT_EQ(r.resumed_shards, 0u);
  io::remove_journal(path);
}

TEST(CampaignResume, NonDefaultSliceFieldsAreRejected) {
  core::CampaignConfig config = short_campaign();
  config.record_begin = 1;
  EXPECT_THROW((void)run_campaign_durable(tiny_scenario(), config,
                                          DurableCampaignConfig{}),
               std::invalid_argument);
}

TEST(CampaignResume, FaultStormQuarantinesShardsIntoFlaggedGaps) {
  // Every attempt of every shard faults: all shards quarantine, every row
  // degrades to a kQuarantined gap, and the campaign still completes.
  DurableCampaignConfig cfg;
  cfg.supervisor.max_attempts = 2;
  cfg.supervisor.faults.intensity = 1.0;
  cfg.supervisor.faults.exec.task_fail_rate = 1.0;
  const DurableCampaignResult r =
      run_campaign_durable(tiny_scenario(), short_campaign(), cfg);
  EXPECT_EQ(r.quarantined_shards, r.shards);
  const core::CampaignData plain =
      core::run_campaign(tiny_scenario(), short_campaign());
  EXPECT_EQ(r.data.slots.size(), plain.slots.size());
  for (const core::SlotObs& row : r.data.slots) {
    EXPECT_EQ(row.quality, core::quality::kQuarantined);
    EXPECT_FALSE(row.has_choice());
    EXPECT_TRUE(row.available.empty());
  }
  EXPECT_EQ(r.data.report.decided, 0u);
  EXPECT_EQ(r.data.report.degraded, r.data.slots.size());
  EXPECT_EQ(r.data.report.value_or("resilience.quarantined", -1.0),
            static_cast<double>(r.shards));
  // The gap rows keep real timestamps, in order.
  for (std::size_t i = 0; i < r.data.slots.size(); ++i) {
    EXPECT_EQ(r.data.slots[i].slot, plain.slots[i].slot);
    EXPECT_EQ(r.data.slots[i].unix_mid, plain.slots[i].unix_mid);
    EXPECT_EQ(r.data.slots[i].local_hour, plain.slots[i].local_hour);
  }
}

TEST(CampaignResume, QuarantinedGapsAreJournaledAndResumeIdentically) {
  const std::string path = journal_path("gap_resume");
  DurableCampaignConfig cfg = durable_config(path);
  cfg.supervisor.max_attempts = 1;
  cfg.supervisor.faults.intensity = 1.0;
  cfg.supervisor.faults.exec.task_fail_rate = 1.0;
  const DurableCampaignResult stormy =
      run_campaign_durable(tiny_scenario(), short_campaign(), cfg);
  EXPECT_EQ(stormy.quarantined_shards, stormy.shards);
  // Resume with NO faults: the journaled gaps must be replayed verbatim,
  // not recomputed into healthy rows.
  const DurableCampaignResult resumed = run_campaign_durable(
      tiny_scenario(), short_campaign(), durable_config(path));
  EXPECT_EQ(resumed.resumed_shards, stormy.shards);
  EXPECT_EQ(campaign_bytes(resumed.data), campaign_bytes(stormy.data));
  io::remove_journal(path);
}

TEST(CampaignResume, AbstainLevelShedsEveryRecord) {
  DurableCampaignConfig cfg;
  cfg.supervisor.max_attempts = 1;
  cfg.supervisor.faults.intensity = 1.0;
  cfg.supervisor.faults.exec.task_fail_rate = 1.0;
  cfg.supervisor.initial_failures = kAbstainFailures - 1;  // first failure
                                                           // jumps to abstain
  const DurableCampaignResult r =
      run_campaign_durable(tiny_scenario(), short_campaign(), cfg);
  EXPECT_EQ(r.final_level, DegradeLevel::kAbstain);
  EXPECT_GT(r.shed_records + r.quarantined_shards * 3, 0u);
  std::size_t degraded = 0;
  for (const core::SlotObs& row : r.data.slots) {
    if (row.quality != 0) ++degraded;
    EXPECT_TRUE((row.quality &
                 ~(core::quality::kQuarantined | core::quality::kShedSlot |
                   core::quality::kCandidateDropout)) == 0u);
  }
  EXPECT_EQ(degraded, r.data.slots.size());
}

TEST(CampaignResume, WidenGridLevelComputesEveryOtherRecord) {
  // Deterministic ladder exercise: start the supervisor pre-tripped at
  // kWidenGrid (no fault storm to race). Even records of each shard must
  // match the plain run bit for bit; odd records degrade to kShedSlot gaps.
  DurableCampaignConfig cfg;
  cfg.supervisor.initial_failures = kWidenGridFailures;
  const DurableCampaignResult r =
      run_campaign_durable(tiny_scenario(), short_campaign(), cfg);
  EXPECT_EQ(r.final_level, DegradeLevel::kWidenGrid);
  EXPECT_GT(r.shed_records, 0u);
  EXPECT_EQ(r.quarantined_shards, 0u);

  const core::CampaignData plain =
      core::run_campaign(tiny_scenario(), short_campaign());
  ASSERT_EQ(r.data.slots.size(), plain.slots.size());
  const std::size_t terminals = r.data.terminal_names.size();
  std::size_t gaps = 0;
  for (std::size_t i = 0; i < plain.slots.size(); ++i) {
    const std::size_t record = i / terminals;
    const core::SlotObs& got = r.data.slots[i];
    const core::SlotObs& want = plain.slots[i];
    EXPECT_EQ(got.slot, want.slot);
    if (record % kShardSlots % 2 == 0) {  // computed record
      EXPECT_EQ(got.chosen, want.chosen);
      EXPECT_EQ(got.quality, want.quality);
      EXPECT_EQ(got.unix_mid, want.unix_mid);
    } else {  // shed record
      ++gaps;
      EXPECT_EQ(got.quality, core::quality::kShedSlot);
      EXPECT_FALSE(got.has_choice());
      EXPECT_EQ(got.unix_mid, want.unix_mid);  // gap keeps the real instant
    }
  }
  EXPECT_EQ(gaps, r.shed_records * terminals);
}

TEST(CampaignResume, AbstainLevelComputesNothing) {
  DurableCampaignConfig cfg;
  cfg.supervisor.initial_failures = kAbstainFailures;
  const DurableCampaignResult r =
      run_campaign_durable(tiny_scenario(), short_campaign(), cfg);
  EXPECT_EQ(r.final_level, DegradeLevel::kAbstain);
  EXPECT_FALSE(r.data.slots.empty());
  for (const core::SlotObs& row : r.data.slots) {
    EXPECT_EQ(row.quality, core::quality::kShedSlot);
    EXPECT_FALSE(row.has_choice());
  }
  EXPECT_EQ(r.shed_records * r.data.terminal_names.size(),
            r.data.slots.size());
}

TEST(CampaignResume, ShedGapsResumeByteIdenticallyFromTheJournal) {
  const std::string path = journal_path("shed_resume");
  DurableCampaignConfig cfg = durable_config(path);
  cfg.supervisor.initial_failures = kWidenGridFailures;
  const DurableCampaignResult degraded =
      run_campaign_durable(tiny_scenario(), short_campaign(), cfg);
  // Resume healthy: journaled shed gaps replay verbatim.
  const DurableCampaignResult resumed = run_campaign_durable(
      tiny_scenario(), short_campaign(), durable_config(path));
  EXPECT_EQ(resumed.resumed_shards, degraded.shards);
  EXPECT_EQ(campaign_bytes(resumed.data), campaign_bytes(degraded.data));
  io::remove_journal(path);
}

TEST(CampaignResume, ShardCodecRoundTripsRowsBitExactly) {
  const core::CampaignData plain =
      core::run_campaign(tiny_scenario(), short_campaign());
  ASSERT_FALSE(plain.slots.empty());
  const std::string payload = encode_shard(5, plain.slots);
  const std::optional<DecodedShard> decoded = decode_shard(payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->shard_index, 5u);
  ASSERT_EQ(decoded->rows.size(), plain.slots.size());
  for (std::size_t i = 0; i < plain.slots.size(); ++i) {
    const core::SlotObs& a = plain.slots[i];
    const core::SlotObs& b = decoded->rows[i];
    EXPECT_EQ(a.slot, b.slot);
    EXPECT_EQ(a.terminal_index, b.terminal_index);
    EXPECT_EQ(a.unix_mid, b.unix_mid);      // bit-exact via hexfloat
    EXPECT_EQ(a.local_hour, b.local_hour);  // bit-exact via hexfloat
    EXPECT_EQ(a.chosen, b.chosen);
    EXPECT_EQ(a.quality, b.quality);
    EXPECT_EQ(a.confidence, b.confidence);
    ASSERT_EQ(a.available.size(), b.available.size());
    for (std::size_t c = 0; c < a.available.size(); ++c) {
      EXPECT_EQ(a.available[c].norad_id, b.available[c].norad_id);
      EXPECT_EQ(a.available[c].azimuth_deg, b.available[c].azimuth_deg);
      EXPECT_EQ(a.available[c].elevation_deg, b.available[c].elevation_deg);
      EXPECT_EQ(a.available[c].age_days, b.available[c].age_days);
      EXPECT_EQ(a.available[c].sunlit, b.available[c].sunlit);
    }
  }
}

TEST(CampaignResume, DecodeRejectsDamagedPayloads) {
  EXPECT_FALSE(decode_shard("").has_value());
  EXPECT_FALSE(decode_shard("X9 0 0").has_value());
  EXPECT_FALSE(decode_shard("S1 0").has_value());           // missing count
  EXPECT_FALSE(decode_shard("S1 0 1").has_value());         // missing row
  EXPECT_FALSE(decode_shard("S1 0 1 R 1 0").has_value());   // truncated row
  EXPECT_FALSE(decode_shard("S1 0 0 trailing").has_value());
  // chosen out of the candidate range.
  EXPECT_FALSE(
      decode_shard("S1 0 1 R 4 0 0x1p+0 0x1p+0 2 0 0x1p+0 0").has_value());
  // A well-formed empty shard decodes.
  EXPECT_TRUE(decode_shard("S1 3 0").has_value());
}

TEST(CampaignResume, SupervisedInferredCampaignMatchesUnsupervised) {
  const core::InferencePipeline pipeline(tiny_scenario());
  const double duration = 120.0;  // 8 slots
  const core::CampaignData plain = pipeline.run_inferred_campaign(duration);
  SupervisorConfig sup;
  const core::CampaignData supervised =
      run_inferred_campaign_supervised(pipeline, duration, sup);
  EXPECT_EQ(campaign_bytes(plain), campaign_bytes(supervised));
  expect_same_report_counts(plain.report, supervised.report);
  EXPECT_EQ(supervised.report.value_or("mean_confidence", -1.0),
            plain.report.value_or("mean_confidence", -2.0));
}

TEST(CampaignResume, SupervisedInferredCampaignQuarantinesFaultyTerminals) {
  const core::InferencePipeline pipeline(tiny_scenario());
  SupervisorConfig sup;
  sup.max_attempts = 1;
  sup.faults.intensity = 1.0;
  sup.faults.exec.task_fail_rate = 1.0;
  const core::CampaignData data =
      run_inferred_campaign_supervised(pipeline, 120.0, sup);
  EXPECT_TRUE(data.slots.empty());  // every terminal quarantined
  EXPECT_EQ(data.report.value_or("resilience.quarantined", -1.0),
            static_cast<double>(data.terminal_names.size()));
  EXPECT_FALSE(data.report.events.empty());
}

TEST(CampaignResume, SupervisedInferredCampaignAbstainsAtTheTopRung) {
  const core::InferencePipeline pipeline(tiny_scenario());
  SupervisorConfig sup;
  sup.initial_failures = kAbstainFailures;
  const core::CampaignData data =
      run_inferred_campaign_supervised(pipeline, 120.0, sup);
  // Every terminal is skipped before its first attempt.
  EXPECT_TRUE(data.slots.empty());
  EXPECT_EQ(data.report.slots, 0u);
  EXPECT_EQ(data.report.value_or("resilience.retries", -1.0), 0.0);
  EXPECT_EQ(data.report.value_or("resilience.quarantined", -1.0), 0.0);
  // One abstain event per terminal, in terminal order, and nothing else:
  // a rung already tripped by initial_failures is not re-announced.
  const std::size_t terminals = tiny_scenario().terminals().size();
  ASSERT_GT(terminals, 1u);
  ASSERT_EQ(data.report.events.size(), terminals);
  for (std::size_t ti = 0; ti < terminals; ++ti) {
    EXPECT_EQ(data.report.events[ti],
              "abstain terminal=" + std::to_string(ti) + ": load shed");
  }
}

}  // namespace
}  // namespace starlab::resilience
