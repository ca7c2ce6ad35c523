#include "ground/terminal.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "ground/sites.hpp"
#include "test_helpers.hpp"

namespace starlab::ground {
namespace {

using starlab::testing::small_scenario;
using starlab::testing::usable_candidates;

time::JulianDate epoch_jd() {
  return time::JulianDate::from_unix_seconds(small_scenario().epoch_unix());
}

TEST(Terminal, CandidatesRespectElevationFloor) {
  const Terminal& iowa = small_scenario().terminal(0);
  for (const Candidate& c :
       iowa.candidates(small_scenario().catalog(), epoch_jd())) {
    EXPECT_GE(c.sky.look.elevation_deg, iowa.min_elevation().value());
  }
}

TEST(Terminal, UsableIsSubsetOfCandidates) {
  const Terminal& iowa = small_scenario().terminal(0);
  const auto all = iowa.candidates(small_scenario().catalog(), epoch_jd());
  const auto usable =
      usable_candidates(iowa, small_scenario().catalog(), epoch_jd());
  EXPECT_LE(usable.size(), all.size());
  for (const Candidate& c : usable) {
    EXPECT_TRUE(c.usable());
    EXPECT_FALSE(c.obstructed);
    EXPECT_FALSE(c.gso_excluded);
  }
}

TEST(Terminal, GsoExclusionRemovesSouthernHighSky) {
  // From ~41 degN, candidates near the GSO arc (az ~180, el ~40) must be
  // flagged. Scan a day of slots to find at least one such candidate and
  // verify the flag fires.
  const Terminal& iowa = small_scenario().terminal(0);
  bool saw_excluded = false;
  for (int k = 0; k < 400 && !saw_excluded; ++k) {
    const auto jd = epoch_jd().plus_seconds(k * 60.0);
    for (const Candidate& c : iowa.candidates(small_scenario().catalog(), jd)) {
      if (c.gso_excluded) {
        saw_excluded = true;
        EXPECT_LT(iowa.gso_arc()
                      .separation(c.sky.look.azimuth(), c.sky.look.elevation())
                      .value(),
                  18.0);
        break;
      }
    }
  }
  EXPECT_TRUE(saw_excluded);
}

TEST(Terminal, GsoFlagEqualsExactPredicateAllDay) {
  // Every candidate over a day of one-minute slots carries exactly the
  // reference predicate `separation < kGsoProtection` as its GSO flag, and
  // the arc's filter agrees with that predicate at a protection pinned to
  // one candidate's exact separation (or the next double above it), which
  // only the exact fallback can decide.
  const Terminal& iowa = small_scenario().terminal(0);
  const geo::GsoArc& arc = iowa.gso_arc();
  std::size_t excluded = 0, clear = 0;
  for (int k = 0; k < 1440; ++k) {
    const auto jd = epoch_jd().plus_seconds(k * 60.0);
    const auto cands = iowa.candidates(small_scenario().catalog(), jd);
    for (const Candidate& c : cands) {
      const bool exact =
          arc.separation(c.sky.look.azimuth(), c.sky.look.elevation()) <
          kGsoProtection;
      EXPECT_EQ(c.gso_excluded, exact)
          << "slot " << k << " norad " << c.sky.norad_id;
      ++(exact ? excluded : clear);
    }
    if (k % 8 != 0 || cands.empty()) continue;
    const geo::Deg az = cands.front().sky.look.azimuth();
    const geo::Deg el = cands.front().sky.look.elevation();
    const double sep = arc.separation(az, el).value();
    for (const double p : {sep, std::nextafter(sep, 181.0)}) {
      EXPECT_EQ(arc.excluded(az, el, geo::Deg(p)),
                arc.separation(az, el) < geo::Deg(p))
          << "slot " << k << " protection " << p;
    }
  }
  EXPECT_GT(excluded, 0u);
  EXPECT_GT(clear, 0u);
}

TEST(Terminal, IthacaMaskBlocksNorthWest) {
  const Terminal& ithaca = small_scenario().terminal(1);
  // A hypothetical NW satellite at 60 deg elevation is behind the trees.
  EXPECT_TRUE(ithaca.mask().blocked(geo::Deg(315.0), geo::Deg(60.0)));
  EXPECT_FALSE(ithaca.mask().blocked(geo::Deg(315.0), geo::Deg(75.0)));
  // Iowa's sky is clean.
  EXPECT_FALSE(small_scenario().terminal(0).mask().blocked(geo::Deg(315.0), geo::Deg(45.0)));
}

TEST(Terminal, IthacaObstructionShowsUpInCandidates) {
  const Terminal& ithaca = small_scenario().terminal(1);
  std::size_t nw_obstructed = 0, scanned = 0;
  for (int k = 0; k < 200; ++k) {
    const auto jd = epoch_jd().plus_seconds(k * 120.0);
    for (const Candidate& c :
         ithaca.candidates(small_scenario().catalog(), jd)) {
      const double az = c.sky.look.azimuth_deg;
      if (az >= 270.0 && c.sky.look.elevation_deg < 70.0) {
        ++scanned;
        if (c.obstructed) ++nw_obstructed;
      }
    }
  }
  ASSERT_GT(scanned, 0u);
  EXPECT_EQ(nw_obstructed, scanned);  // everything below the tree line
}

TEST(Terminal, SnapshotPathMatchesDirectPath) {
  const Terminal& iowa = small_scenario().terminal(0);
  const auto jd = epoch_jd();
  const auto snaps = small_scenario().catalog().propagate_all(jd);
  const auto direct = iowa.candidates(small_scenario().catalog(), jd);
  const auto via = iowa.candidates_from_snapshots(small_scenario().catalog(),
                                                  snaps, jd);
  ASSERT_EQ(direct.size(), via.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(direct[i].sky.norad_id, via[i].sky.norad_id);
    EXPECT_EQ(direct[i].obstructed, via[i].obstructed);
    EXPECT_EQ(direct[i].gso_excluded, via[i].gso_excluded);
  }
}

TEST(Terminal, ConfigPlumbing) {
  TerminalConfig cfg;
  cfg.name = "test-dish";
  cfg.site = {10.0, 20.0, 0.3};
  cfg.pop_site = {11.0, 21.0, 0.0};
  cfg.min_elevation = geo::Deg(30.0);
  const Terminal t(cfg);
  EXPECT_EQ(t.name(), "test-dish");
  EXPECT_DOUBLE_EQ(t.site().latitude_deg, 10.0);
  EXPECT_DOUBLE_EQ(t.pop_site().longitude_deg, 21.0);
  EXPECT_DOUBLE_EQ(t.min_elevation().value(), 30.0);
}

}  // namespace
}  // namespace starlab::ground
