#include "constellation/walker.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>
#include "test_helpers.hpp"

namespace starlab::constellation {
namespace {

using starlab::testing::starlink_gen2_shells;

using geo::Deg;
using geo::Km;

TEST(Walker, CircularMeanMotionAt550Km) {
  // A 550 km circular orbit has a ~95.6 min period -> ~15.06 rev/day.
  EXPECT_NEAR(circular_mean_motion_rev_per_day(Km(550.0)), 15.06, 0.05);
}

TEST(Walker, MeanMotionDecreasesWithAltitude) {
  EXPECT_GT(circular_mean_motion_rev_per_day(Km(540.0)),
            circular_mean_motion_rev_per_day(Km(570.0)));
}

TEST(Walker, GeneratesExactCount) {
  const WalkerShell shell{Deg(53.0), Km(550.0), 72, 22, 17, Deg(0.0)};
  EXPECT_EQ(generate_walker(shell).size(), 72u * 22u);
  EXPECT_EQ(shell.total_satellites(), 1584);
}

TEST(Walker, PlanesAreEquallySpacedInRaan) {
  const WalkerShell shell{Deg(53.0), Km(550.0), 8, 4, 1, Deg(0.0)};
  const auto elements = generate_walker(shell);
  std::set<double> raans;
  for (const WalkerElement& e : elements) raans.insert(e.raan.value());
  ASSERT_EQ(raans.size(), 8u);
  std::vector<double> sorted(raans.begin(), raans.end());
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_NEAR(sorted[i] - sorted[i - 1], 45.0, 1e-9);
  }
}

TEST(Walker, SlotsAreEquallySpacedInAnomaly) {
  const WalkerShell shell{Deg(53.0), Km(550.0), 4, 6, 0, Deg(0.0)};
  const auto elements = generate_walker(shell);
  // Plane 0: anomalies 0, 60, ..., 300.
  for (int s = 0; s < 6; ++s) {
    EXPECT_NEAR(elements[static_cast<std::size_t>(s)].mean_anomaly.value(),
                s * 60.0, 1e-9);
  }
}

TEST(Walker, PhasingOffsetsAdjacentPlanes) {
  const WalkerShell shell{Deg(53.0), Km(550.0), 4, 6, 2, Deg(0.0)};
  const auto elements = generate_walker(shell);
  // F=2, T=24: adjacent-plane offset is 2*360/24 = 30 deg.
  const double plane0_slot0 = elements[0].mean_anomaly.value();
  const double plane1_slot0 = elements[6].mean_anomaly.value();
  EXPECT_NEAR(plane1_slot0 - plane0_slot0, 30.0, 1e-9);
}

TEST(Walker, RaanOffsetRotatesWholePattern) {
  const WalkerShell base{Deg(53.0), Km(550.0), 6, 4, 1, Deg(0.0)};
  WalkerShell rotated = base;
  rotated.raan_offset = Deg(10.0);
  const auto a = generate_walker(base);
  const auto b = generate_walker(rotated);
  for (std::size_t i = 0; i < a.size(); ++i) {
    double diff = (b[i].raan - a[i].raan).value();
    if (diff < 0.0) diff += 360.0;
    EXPECT_NEAR(diff, 10.0, 1e-9);
  }
}

TEST(Walker, Gen1ShellsMatchLicensedCounts) {
  const auto shells = starlink_gen1_shells();
  ASSERT_EQ(shells.size(), 4u);
  int total = 0;
  for (const WalkerShell& s : shells) total += s.total_satellites();
  // 1584 + 1584 + 720 + 348 == 4236, the ~4000-satellite constellation the
  // paper describes.
  EXPECT_EQ(total, 4236);
  EXPECT_NEAR(shells[0].inclination.value(), 53.0, 1e-9);
  EXPECT_NEAR(shells[3].inclination.value(), 97.6, 1e-9);
}

TEST(Walker, Gen1PerShellGoldens) {
  // Per-shell golden parameters: any drift here silently changes every
  // synthesized catalog in the repo.
  const auto shells = starlink_gen1_shells();
  ASSERT_EQ(shells.size(), 4u);
  const struct {
    double incl, alt;
    int planes, sats, phasing, total;
  } want[4] = {
      {53.0, 550.0, 72, 22, 17, 1584},
      {53.2, 540.0, 72, 22, 17, 1584},
      {70.0, 570.0, 36, 20, 11, 720},
      {97.6, 560.0, 6, 58, 1, 348},
  };
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(shells[i].inclination.value(), want[i].incl, 1e-12) << i;
    EXPECT_NEAR(shells[i].altitude.value(), want[i].alt, 1e-12) << i;
    EXPECT_EQ(shells[i].planes, want[i].planes) << i;
    EXPECT_EQ(shells[i].sats_per_plane, want[i].sats) << i;
    EXPECT_EQ(shells[i].phasing, want[i].phasing) << i;
    EXPECT_EQ(shells[i].total_satellites(), want[i].total) << i;
  }
}

TEST(Walker, Gen2ShellGrowsCatalogToNineThousand) {
  const WalkerShell g2 = starlink_gen2_shell();
  EXPECT_NEAR(g2.inclination.value(), 53.0, 1e-12);
  EXPECT_NEAR(g2.altitude.value(), 525.0, 1e-12);
  EXPECT_EQ(g2.planes, 120);
  EXPECT_EQ(g2.sats_per_plane, 45);
  EXPECT_EQ(g2.total_satellites(), 5400);

  const auto shells = starlink_gen2_shells();
  ASSERT_EQ(shells.size(), 5u);
  int total = 0;
  for (const WalkerShell& s : shells) total += s.total_satellites();
  EXPECT_EQ(total, 9636);
}

TEST(Walker, EveryShellEquallySpacedAndPhased) {
  // Plane spacing, in-plane slot spacing, and Walker phasing for all five
  // shells (Gen1 + Gen2), checked structurally from the generated elements.
  for (const WalkerShell& shell : starlink_gen2_shells()) {
    const auto elements = generate_walker(shell);
    ASSERT_EQ(elements.size(),
              static_cast<std::size_t>(shell.total_satellites()));

    const double raan_step = 360.0 / shell.planes;
    const double slot_step = 360.0 / shell.sats_per_plane;
    const double phase_step =
        static_cast<double>(shell.phasing) * 360.0 / shell.total_satellites();

    std::set<double> raans;
    for (const WalkerElement& e : elements) {
      raans.insert(e.raan.value());
      EXPECT_NEAR(e.inclination.value(), shell.inclination.value(), 1e-12);
      EXPECT_NEAR(e.altitude.value(), shell.altitude.value(), 1e-12);
    }
    EXPECT_EQ(raans.size(), static_cast<std::size_t>(shell.planes));

    const auto& first = elements[0];
    for (const WalkerElement& e : elements) {
      // Plane spacing from the shell's own RAAN offset.
      EXPECT_NEAR(e.raan.value(),
                  geo::wrap_360(shell.raan_offset.value() +
                                e.plane * raan_step),
                  1e-9);
      // Slot spacing plus Walker inter-plane phasing.
      EXPECT_NEAR(e.mean_anomaly.value(),
                  geo::wrap_360(first.mean_anomaly.value() +
                                e.slot * slot_step + e.plane * phase_step),
                  1e-9);
    }
  }
}

TEST(Walker, AllElementsWithinAngleRanges) {
  for (const WalkerShell& shell : starlink_gen2_shells()) {
    for (const WalkerElement& e : generate_walker(shell)) {
      EXPECT_GE(e.raan.value(), 0.0);
      EXPECT_LT(e.raan.value(), 360.0);
      EXPECT_GE(e.mean_anomaly.value(), 0.0);
      EXPECT_LT(e.mean_anomaly.value(), 360.0);
      EXPECT_GT(e.mean_motion_rev_per_day, 14.0);
      EXPECT_LT(e.mean_motion_rev_per_day, 16.0);
    }
  }
}

}  // namespace
}  // namespace starlab::constellation
