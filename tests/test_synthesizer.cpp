#include "constellation/synthesizer.hpp"

#include <gtest/gtest.h>

#include <set>

#include "sgp4/sgp4.hpp"
#include "tle/catalog_io.hpp"

namespace starlab::constellation {
namespace {

/// Every 20th Gen1 slot.
SynthesizerConfig small_config() {
  SynthesizerConfig cfg;
  cfg.scale = 0.05;
  return cfg;
}

std::size_t gen1_slots() {
  std::size_t total = 0;
  for (const WalkerShell& s : starlink_gen1_shells()) {
    total += static_cast<std::size_t>(s.total_satellites());
  }
  return total;
}

TEST(Synthesizer, ProducesAllSatellites) {
  const Constellation c = synthesize(SynthesizerConfig{});
  EXPECT_EQ(c.size(), gen1_slots());
}

TEST(Synthesizer, ScaleThinsTheConstellation) {
  SynthesizerConfig cfg = small_config();
  cfg.scale = 0.5;
  const Constellation c = synthesize(cfg);
  EXPECT_EQ(c.size(), (gen1_slots() + 1) / 2);
}

TEST(Synthesizer, NoradIdsAreUniqueAndSequential) {
  const Constellation c = synthesize(small_config());
  std::set<int> ids;
  for (const SatelliteRecord& r : c.satellites) ids.insert(r.tle.norad_id);
  EXPECT_EQ(ids.size(), c.size());
  EXPECT_EQ(*ids.begin(), 44000);
}

TEST(Synthesizer, LaunchDatesAreChronologicalAndInRange) {
  const time::UtcTime first{2019, 5, 24, 0, 0, 0.0};
  const time::UtcTime last{2023, 5, 4, 0, 0, 0.0};
  const Constellation c = synthesize(small_config());
  ASSERT_FALSE(c.launches.empty());
  double prev = 0.0;
  for (const LaunchBatch& b : c.launches) {
    const double t = b.date.to_unix_seconds();
    EXPECT_GE(t, prev);
    prev = t;
    EXPECT_GE(t, first.to_unix_seconds() - 1.0);
    EXPECT_LE(t, last.to_unix_seconds() + 1.0);
  }
}

TEST(Synthesizer, LaunchSizesMatchConfig) {
  const Constellation c = synthesize(small_config());
  std::size_t total = 0;
  for (const LaunchBatch& b : c.launches) {
    EXPECT_LE(b.count, 56);  // Starlink F9 missions carry ~52-60
    EXPECT_GT(b.count, 0);
    total += static_cast<std::size_t>(b.count);
  }
  EXPECT_EQ(total, c.size());
}

TEST(Synthesizer, EveryTleInitializesUnderSgp4) {
  const Constellation c = synthesize(small_config());
  for (const SatelliteRecord& r : c.satellites) {
    EXPECT_NO_THROW({ sgp4::Sgp4 prop(r.tle); }) << r.tle.name;
  }
}

TEST(Synthesizer, TlesRoundTripThroughText) {
  const Constellation c = synthesize(small_config());
  std::ostringstream out;
  tle::write_catalog(out, c.tles());
  const std::vector<tle::Tle> parsed = tle::read_catalog_string(out.str());
  ASSERT_EQ(parsed.size(), c.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].norad_id, c.satellites[i].tle.norad_id);
    EXPECT_NEAR(parsed[i].inclination_deg,
                c.satellites[i].tle.inclination_deg, 1e-4);
  }
}

TEST(Synthesizer, DesignatorEncodesLaunchYear) {
  const Constellation c = synthesize(small_config());
  for (const SatelliteRecord& r : c.satellites) {
    ASSERT_GE(r.tle.intl_designator.size(), 5u);
    const int yy = std::stoi(r.tle.intl_designator.substr(0, 2));
    EXPECT_EQ(2000 + yy, r.launch_date.year);
  }
}

TEST(Synthesizer, AgeDecreasesWithLaunchIndex) {
  const Constellation c = synthesize(small_config());
  const double now = (time::UtcTime{2023, 6, 1, 0, 0, 0.0}).to_unix_seconds();
  // Launch index order implies age order.
  for (std::size_t i = 1; i < c.satellites.size(); ++i) {
    if (c.satellites[i].launch_index > c.satellites[i - 1].launch_index) {
      EXPECT_LE(c.satellites[i].age_days(now),
                c.satellites[i - 1].age_days(now) + 1e-9);
    }
  }
}

TEST(Synthesizer, DeterministicForSameSeed) {
  const Constellation a = synthesize(small_config());
  const Constellation b = synthesize(small_config());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.satellites[i].tle.norad_id, b.satellites[i].tle.norad_id);
    EXPECT_DOUBLE_EQ(a.satellites[i].tle.raan_deg, b.satellites[i].tle.raan_deg);
  }
}

TEST(Synthesizer, SeedChangesBatchComposition) {
  SynthesizerConfig cfg = small_config();
  cfg.seed = 999;
  const Constellation a = synthesize(small_config());
  const Constellation b = synthesize(cfg);
  // Same slots overall, but the windowed shuffle should differ somewhere.
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size() && !any_diff; ++i) {
    any_diff = a.satellites[i].tle.raan_deg != b.satellites[i].tle.raan_deg ||
               a.satellites[i].tle.mean_anomaly_deg !=
                   b.satellites[i].tle.mean_anomaly_deg;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Synthesizer, Gen2FlagAppendsExtensionShell) {
  SynthesizerConfig cfg;  // default Gen1 shells
  cfg.gen2 = true;
  cfg.scale = 0.05;  // every 20th slot: 9636 / 20 -> 482
  const Constellation c = synthesize(cfg);
  EXPECT_EQ(c.size(), 482u);
  // The appended shell is index 4; its slots must actually appear.
  bool any_gen2 = false;
  for (const SatelliteRecord& r : c.satellites) any_gen2 |= r.shell == 4;
  EXPECT_TRUE(any_gen2);

  // Defaulting off leaves the Gen1 catalog untouched.
  SynthesizerConfig gen1;
  gen1.scale = 0.05;
  EXPECT_EQ(synthesize(gen1).size(), 212u);  // ceil(4236 / 20)
}

TEST(Synthesizer, EveryTleRoundTripsThroughLenientParserCleanly) {
  // Property: the synthesizer only emits standards-conformant TLE text. The
  // lenient parser must accept every record of a Gen2-scale catalog with an
  // empty issue list — any checksum, column, or range problem in the
  // formatter shows up here as a ParseReport warning.
  SynthesizerConfig cfg;
  cfg.gen2 = true;
  cfg.scale = 0.1;  // 964 satellites across all five shells
  const Constellation c = synthesize(cfg);

  std::ostringstream out;
  tle::write_catalog(out, c.tles());
  io::ParseReport report;
  const std::vector<tle::Tle> parsed =
      tle::read_catalog_string_lenient(out.str(), report);

  EXPECT_TRUE(report.issues.empty())
      << report.records_skipped << " record(s) skipped";
  EXPECT_EQ(report.records_ok, c.size());
  ASSERT_EQ(parsed.size(), c.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].norad_id, c.satellites[i].tle.norad_id);
    EXPECT_NEAR(parsed[i].inclination_deg, c.satellites[i].tle.inclination_deg,
                1e-4);
    EXPECT_NEAR(parsed[i].mean_motion_rev_per_day,
                c.satellites[i].tle.mean_motion_rev_per_day, 1e-7);
  }
}

TEST(Synthesizer, MonthLabelsWellFormed) {
  const Constellation c = synthesize(small_config());
  for (const LaunchBatch& b : c.launches) {
    ASSERT_EQ(b.label.size(), 7u);
    EXPECT_EQ(b.label[4], '-');
  }
}

}  // namespace
}  // namespace starlab::constellation
