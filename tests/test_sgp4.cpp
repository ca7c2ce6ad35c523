#include "sgp4/sgp4.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "geo/wgs.hpp"
#include "tle/tle.hpp"
#include "test_helpers.hpp"

namespace starlab::sgp4 {
namespace {

/// Semi-major axis at epoch [km], from the recovered Brouwer elements.
double semi_major_axis_km(const Sgp4& prop) {
  return prop.constants().ao * geo::kWgs72.radius_km;
}

using starlab::testing::cross;

tle::Tle vanguard() {
  return tle::Tle::parse(
      "1 00005U 58002B   00179.78495062  .00000023  00000-0  28098-4 0  4753",
      "2 00005  34.2682 348.7242 1859667 331.7664  19.3264 10.82419157413667");
}

tle::Tle starlink_like() {
  tle::Tle t;
  t.norad_id = 44000;
  t.intl_designator = "19029A";
  t.epoch_year = 2023;
  t.epoch_day = 152.0;
  t.bstar = 1.0e-4;
  t.inclination_deg = 53.0;
  t.raan_deg = 120.0;
  t.eccentricity = 0.0001;
  t.arg_perigee_deg = 90.0;
  t.mean_anomaly_deg = 10.0;
  t.mean_motion_rev_per_day = 15.06;  // ~550 km shell
  return t;
}

TEST(Sgp4, VanguardEpochStateMatchesReference) {
  // First row of the canonical SGP4 verification output for catalog 00005
  // (Vallado, "Revisiting Spacetrack Report #3", tsince = 0).
  const Sgp4 prop(vanguard());
  const StateVector st = prop.propagate(0.0);
  EXPECT_NEAR(st.position_km.x, 7022.46529266, 0.1);
  EXPECT_NEAR(st.position_km.y, -1400.08296755, 0.1);
  EXPECT_NEAR(st.position_km.z, 0.03995155, 0.1);
  EXPECT_NEAR(st.velocity_km_s.x, 1.893841015, 1e-3);
  EXPECT_NEAR(st.velocity_km_s.y, 6.405893759, 1e-3);
  EXPECT_NEAR(st.velocity_km_s.z, 4.534807250, 1e-3);
}

TEST(Sgp4, StarlinkAltitudeStaysInShell) {
  const Sgp4 prop(starlink_like());
  for (double t = 0.0; t <= 1440.0; t += 10.0) {
    const StateVector st = prop.propagate(t);
    const double alt = st.position_km.norm() - geo::kWgs72.radius_km;
    EXPECT_GT(alt, 500.0) << "t=" << t;
    EXPECT_LT(alt, 600.0) << "t=" << t;
  }
}

TEST(Sgp4, StarlinkSpeedIsOrbital) {
  const Sgp4 prop(starlink_like());
  for (double t = 0.0; t <= 200.0; t += 13.0) {
    const double v = prop.propagate(t).velocity_km_s.norm();
    EXPECT_NEAR(v, 7.59, 0.05) << "t=" << t;  // circular speed at 550 km
  }
}

TEST(Sgp4, PeriodMatchesMeanMotion) {
  const Sgp4 prop(starlink_like());
  const double period_min = 1440.0 / 15.06;
  const StateVector a = prop.propagate(0.0);
  const StateVector b = prop.propagate(period_min);
  // After one nodal period the position repeats to within J2-drift scale.
  EXPECT_LT((a.position_km - b.position_km).norm(), 60.0);
}

TEST(Sgp4, InclinationPreserved) {
  const Sgp4 prop(starlink_like());
  for (double t = 0.0; t <= 720.0; t += 45.0) {
    const StateVector st = prop.propagate(t);
    const geo::Vec3 h = cross(st.position_km, st.velocity_km_s);
    const double incl = std::acos(h.z / h.norm()) * 180.0 / M_PI;
    EXPECT_NEAR(incl, 53.0, 0.1) << "t=" << t;
  }
}

TEST(Sgp4, VelocityIsTimeDerivativeOfPosition) {
  const Sgp4 prop(starlink_like());
  const double dt_min = 1.0 / 600.0;  // 0.1 s
  const StateVector a = prop.propagate(100.0);
  const StateVector b = prop.propagate(100.0 + dt_min);
  const geo::Vec3 fd = (b.position_km - a.position_km) / (dt_min * 60.0);
  EXPECT_NEAR(fd.x, a.velocity_km_s.x, 1e-3);
  EXPECT_NEAR(fd.y, a.velocity_km_s.y, 1e-3);
  EXPECT_NEAR(fd.z, a.velocity_km_s.z, 1e-3);
}

TEST(Sgp4, EccentricOrbitRadiusRange) {
  const Sgp4 prop(vanguard());
  const double a_km = semi_major_axis_km(prop);
  const double e = 0.1859667;
  for (double t = 0.0; t <= 360.0; t += 7.0) {
    const double r = prop.propagate(t).position_km.norm();
    EXPECT_GT(r, a_km * (1.0 - e) * 0.99) << "t=" << t;
    EXPECT_LT(r, a_km * (1.0 + e) * 1.01) << "t=" << t;
  }
}

TEST(Sgp4, KozaiRecoveryDirection) {
  // For i < 54.7 deg (3cos^2 i - 1 > 0) the Brouwer mean motion is smaller
  // than the Kozai value.
  const Sgp4 prop(starlink_like());
  const double kozai_rad_min = 15.06 * 2.0 * M_PI / 1440.0;
  EXPECT_LT(prop.constants().no_unkozai, kozai_rad_min);
  EXPECT_NEAR(prop.constants().no_unkozai, kozai_rad_min, 1e-4);
}

TEST(Sgp4, SemiMajorAxisMatchesAltitude) {
  const Sgp4 prop(starlink_like());
  EXPECT_NEAR(semi_major_axis_km(prop) - geo::kWgs72.radius_km, 550.0, 15.0);
}

TEST(Sgp4, DragShrinksOrbitOverWeeks) {
  tle::Tle heavy_drag = starlink_like();
  heavy_drag.bstar = 5.0e-3;  // strong drag
  const Sgp4 prop(heavy_drag);
  const double r_now = prop.propagate(0.0).position_km.norm();
  const double r_later = prop.propagate(14.0 * 1440.0).position_km.norm();
  EXPECT_LT(r_later, r_now - 1.0);
}

TEST(Sgp4, BackwardPropagationWorks) {
  const Sgp4 prop(starlink_like());
  const StateVector st = prop.propagate(-60.0);
  const double alt = st.position_km.norm() - geo::kWgs72.radius_km;
  EXPECT_GT(alt, 500.0);
  EXPECT_LT(alt, 600.0);
}

TEST(Sgp4, DeepSpaceRejected) {
  tle::Tle gso = starlink_like();
  gso.mean_motion_rev_per_day = 1.0027;  // geosynchronous
  gso.eccentricity = 0.0002;
  try {
    const Sgp4 prop(gso);
    FAIL() << "deep-space element set should throw";
  } catch (const Sgp4Error& e) {
    EXPECT_NE(std::string(e.what()).find("deep-space"), std::string::npos)
        << e.what();
  }
}

TEST(Sgp4, InvalidEccentricityRejected) {
  tle::Tle bad = starlink_like();
  bad.eccentricity = 1.5;
  EXPECT_THROW(Sgp4{bad}, Sgp4Error);
}

TEST(Sgp4, NonPositiveMeanMotionRejected) {
  tle::Tle bad = starlink_like();
  bad.mean_motion_rev_per_day = -1.0;
  EXPECT_THROW(Sgp4{bad}, Sgp4Error);
}

TEST(Sgp4, PropagateToUsesEpoch) {
  const tle::Tle t = starlink_like();
  const Sgp4 prop(t);
  const StateVector a = prop.propagate(30.0);
  const StateVector b = prop.propagate_to(t.epoch_jd().plus_seconds(1800.0));
  EXPECT_NEAR((a.position_km - b.position_km).norm(), 0.0, 1e-6);
}

// Parameterized shell sweep: every Starlink shell inclination/altitude must
// propagate stably for a day.
struct ShellParam {
  double incl, alt_km;
};
class Sgp4ShellSweep : public ::testing::TestWithParam<ShellParam> {};

TEST_P(Sgp4ShellSweep, StaysNearNominalAltitude) {
  const auto [incl, alt] = GetParam();
  tle::Tle t = starlink_like();
  t.inclination_deg = incl;
  const double a = geo::kWgs72.radius_km + alt;
  const double n_rad_s = std::sqrt(geo::kWgs72.mu_km3_s2 / (a * a * a));
  t.mean_motion_rev_per_day = n_rad_s * 86400.0 / (2.0 * M_PI);

  const Sgp4 prop(t);
  for (double ts = 0.0; ts <= 1440.0; ts += 97.0) {
    const double r = prop.propagate(ts).position_km.norm();
    EXPECT_NEAR(r - geo::kWgs72.radius_km, alt, 40.0) << "t=" << ts;
  }
}

INSTANTIATE_TEST_SUITE_P(StarlinkShells, Sgp4ShellSweep,
                         ::testing::Values(ShellParam{53.0, 550.0},
                                           ShellParam{53.2, 540.0},
                                           ShellParam{70.0, 570.0},
                                           ShellParam{97.6, 560.0}));

}  // namespace
}  // namespace starlab::sgp4
