#include "geo/gso_arc.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>

#include "geo/angles.hpp"
#include "test_helpers.hpp"

namespace starlab::geo {
namespace {

using starlab::testing::angular_difference_deg;

const Geodetic kIowa{41.661, -91.530, 0.22};

TEST(GsoArc, CulminatesDueSouthFromNorthernHemisphere) {
  const GsoArc arc(kIowa);
  ASSERT_FALSE(arc.samples().empty());

  // Find the highest sample; it should sit near azimuth 180.
  const LookAngles* best = &arc.samples().front();
  for (const LookAngles& s : arc.samples()) {
    if (s.elevation_deg > best->elevation_deg) best = &s;
  }
  EXPECT_LT(angular_difference_deg(best->azimuth_deg, 180.0), 3.0);
  // At 41.7 degN the GSO culmination is ~41 deg elevation.
  EXPECT_NEAR(best->elevation_deg, 41.0, 3.0);
}

TEST(GsoArc, SouthernHemisphereSeesArcToTheNorth) {
  const Geodetic sydney{-33.9, 151.2, 0.0};
  const GsoArc arc(sydney);
  const LookAngles* best = &arc.samples().front();
  for (const LookAngles& s : arc.samples()) {
    if (s.elevation_deg > best->elevation_deg) best = &s;
  }
  EXPECT_LT(angular_difference_deg(best->azimuth_deg, 0.0), 3.0);
}

TEST(GsoArc, NorthSkyFarFromArc) {
  const GsoArc arc(kIowa);
  // Looking due north at 60 deg elevation is far from the southern arc.
  EXPECT_GT(arc.separation(Deg(0.0), Deg(60.0)).value(), 60.0);
  EXPECT_FALSE(arc.excluded(Deg(0.0), Deg(60.0), Deg(18.0)));
}

TEST(GsoArc, PointsOnArcAreExcluded) {
  const GsoArc arc(kIowa);
  for (std::size_t i = 0; i < arc.samples().size(); i += 25) {
    const LookAngles& s = arc.samples()[i];
    if (s.elevation_deg < 0.0) continue;
    EXPECT_LT(arc.separation(s.azimuth(), s.elevation()).value(), 0.6);
    EXPECT_TRUE(arc.excluded(s.azimuth(), s.elevation(), Deg(18.0)));
  }
}

TEST(GsoArc, ExclusionShrinksWithProtectionAngle) {
  const GsoArc arc(kIowa);
  // A point ~10 deg above the arc's culmination.
  const double az = 180.0;
  const double el = arc.max_elevation().value() + 10.0;
  EXPECT_TRUE(arc.excluded(Deg(az), Deg(el), Deg(18.0)));
  EXPECT_FALSE(arc.excluded(Deg(az), Deg(el), Deg(5.0)));
}

TEST(GsoArc, HighLatitudeSeesNoArc) {
  // Beyond ~81 deg latitude the GSO belt is below the horizon; with a
  // min-elevation filter of +5 the arc can vanish entirely.
  const Geodetic alert{85.0, -62.0, 0.0};
  const GsoArc arc(alert, Deg(0.5), Deg(5.0));
  if (arc.samples().empty()) {
    EXPECT_GT(arc.separation(Deg(180.0), Deg(45.0)).value(), 1e8);
    EXPECT_FALSE(arc.excluded(Deg(180.0), Deg(45.0), Deg(18.0)));
  } else {
    // If anything survived the filter it must be barely above 5 deg.
    EXPECT_LT(arc.max_elevation().value(), 10.0);
  }
}

TEST(GsoArc, SeparationIsContinuousAcrossAzimuth) {
  const GsoArc arc(kIowa);
  double prev = arc.separation(Deg(90.0), Deg(45.0)).value();
  for (double az = 91.0; az <= 270.0; az += 1.0) {
    const double cur = arc.separation(Deg(az), Deg(45.0)).value();
    EXPECT_LT(std::fabs(cur - prev), 3.0) << "jump at az " << az;
    prev = cur;
  }
}

TEST(GsoArc, ExcludedAgreesWithExactSeparation) {
  // `excluded` is a dot-product filter with an exact fallback; it must equal
  // the reference predicate everywhere, including right at the boundary.
  struct Arc {
    const char* name;
    GsoArc arc;
  };
  const Arc arcs[] = {
      {"iowa", GsoArc(kIowa)},
      {"ithaca", GsoArc(Geodetic{42.44, -76.50, 0.25})},
      {"sydney", GsoArc(Geodetic{-33.9, 151.2, 0.0})},
      {"equator", GsoArc(Geodetic{0.0, 0.0, 0.0})},
      {"madrid", GsoArc(Geodetic{40.42, -3.70, 0.65})},
      {"alert+5", GsoArc(Geodetic{85.0, -62.0, 0.0}, Deg(0.5), Deg(5.0))},
  };
  EXPECT_TRUE(arcs[5].arc.samples().empty());

  const auto agree = [](const Arc& a, double az, double el, double p) {
    const bool exact = a.arc.separation(Deg(az), Deg(el)) < Deg(p);
    EXPECT_EQ(a.arc.excluded(Deg(az), Deg(el), Deg(p)), exact)
        << a.name << " az=" << az << " el=" << el << " protection=" << p;
    return exact;
  };

  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  std::mt19937_64 rng(15);
  std::uniform_real_distribution<double> u_az(0.0, 360.0);
  std::uniform_real_distribution<double> u_el(-10.0, 90.0);
  std::uniform_real_distribution<double> u_p(0.0, 40.0);
  for (const Arc& a : arcs) {
    std::size_t inside = 0;
    for (int i = 0; i < 4000; ++i) {
      inside += agree(a, u_az(rng), u_el(rng), u_p(rng)) ? 1 : 0;
    }
    if (!a.arc.samples().empty()) {
      EXPECT_GT(inside, 0u) << a.name;
    }

    // Boundary band: the protection equals the probe's own separation, or
    // sits one ulp or 1e-12 deg to either side of it. Probes are drawn near
    // the arc so the separations are realistic protection angles.
    for (int i = 0; i < 1500; ++i) {
      const double az = u_az(rng), el = u_el(rng);
      const double sep = a.arc.separation(Deg(az), Deg(el)).value();
      if (sep > 180.0) continue;  // no arc: nothing to straddle
      for (const double p :
           {sep, sep - 1e-12, sep + 1e-12,
            std::nextafter(sep, -1.0), std::nextafter(sep, 181.0)}) {
        agree(a, az, el, p);
      }
    }

    // Degenerate protections and inputs.
    for (const double p : {0.0, 1e-12, 12.0, 180.0, -1.0, kNaN}) {
      agree(a, 180.0, 40.0, p);
      agree(a, 0.0, 60.0, p);
      agree(a, 97.25, 5.0, p);
      agree(a, kNaN, 40.0, p);
      agree(a, 180.0, kNaN, p);
      agree(a, kNaN, kNaN, p);
      agree(a, -30.0, 40.0, p);  // azimuths outside [0, 360)
      agree(a, 900.0, 40.0, p);
      agree(a, 1e7, 40.0, p);
      agree(a, std::numeric_limits<double>::infinity(), 40.0, p);
    }
  }
}

}  // namespace
}  // namespace starlab::geo
