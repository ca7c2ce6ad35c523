// Behavior of the contracts layer (src/check/): mode selection, the three
// failure disciplines, and a real paper invariant firing end-to-end.

#include "check/contracts.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "geo/geodetic.hpp"
#include "geo/gso_arc.hpp"
#include "geo/topocentric.hpp"
#include "ground/obstruction_mask.hpp"
#include "obsmap/map_geometry.hpp"
#include "test_helpers.hpp"

namespace starlab::check {
namespace {

using starlab::testing::direction_from_look;


/// Every test runs in kThrow unless it says otherwise, and the process-wide
/// mode is restored afterwards so test order cannot leak a mode.
class ContractsTest : public ::testing::Test {
 protected:
  void SetUp() override { set_mode(Mode::kThrow); }
  void TearDown() override { set_mode(Mode::kAbort); }
};

void require_positive(int x) {
  STARLAB_EXPECT(x > 0, "x must be positive, got " + std::to_string(x));
}

TEST_F(ContractsTest, PassingCheckIsSilent) {
  EXPECT_NO_THROW(require_positive(7));
}

TEST_F(ContractsTest, ThrowModeRaisesContractViolation) {
  EXPECT_THROW(require_positive(-3), ContractViolation);
}

TEST_F(ContractsTest, ViolationMessageCarriesKindExpressionAndDetail) {
  try {
    require_positive(-3);
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("EXPECT"), std::string::npos) << msg;
    EXPECT_NE(msg.find("x > 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("got -3"), std::string::npos) << msg;
  }
}

TEST_F(ContractsTest, LogModeCountsAndContinues) {
  set_mode(Mode::kLog);
  const std::uint64_t before = violation_count();
  EXPECT_NO_THROW(require_positive(-1));
  EXPECT_NO_THROW(require_positive(-2));
  EXPECT_EQ(violation_count(), before + 2);
  EXPECT_NO_THROW(require_positive(5));
  EXPECT_EQ(violation_count(), before + 2);  // passing checks don't count
}

TEST_F(ContractsTest, DetailIsLazilyEvaluated) {
  // The detail expression must not run on the happy path — this is what
  // keeps a passing check at one branch.
  bool evaluated = false;
  const auto detail = [&] {
    evaluated = true;
    return std::string("boom");
  };
  STARLAB_EXPECT(1 + 1 == 2, detail());
  EXPECT_FALSE(evaluated);
}

// --- paper invariants actually wired into the pipeline -------------------

TEST_F(ContractsTest, ObstructionMaskRejectsImpossibleElevation) {
  ground::ObstructionMask mask;
  EXPECT_THROW(
      mask.add_obstruction(geo::Deg(0.0), geo::Deg(90.0), geo::Deg(200.0)),
      ContractViolation);
  EXPECT_NO_THROW(
      mask.add_obstruction(geo::Deg(0.0), geo::Deg(90.0), geo::Deg(45.0)));
}

TEST_F(ContractsTest, DegenerateMapGeometryRejected) {
  obsmap::MapGeometry geometry;
  geometry.radius_px = 0.0;  // collapses the sky disc to a point
  EXPECT_THROW(
      (void)geometry.pixel_of(geo::Deg(120.0), geo::Deg(45.0)),
      ContractViolation);
}

TEST_F(ContractsTest, GsoArcRejectsNonPositiveStep) {
  // Each of these steps would never advance the arc's longitude loop.
  const geo::Geodetic iowa{41.661, -91.530, 0.22};
  for (const double step :
       {0.0, -0.5, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(geo::GsoArc(iowa, geo::Deg(step)), ContractViolation)
        << "step " << step;
  }
  EXPECT_NO_THROW(geo::GsoArc(iowa, geo::Deg(0.5)));
}

TEST_F(ContractsTest, LookAnglesPostconditionsHoldOnRealGeometry) {
  const geo::Geodetic obs{42.44, -76.50, 0.25};  // Ithaca
  for (double az = 0.0; az < 360.0; az += 45.0) {
    for (double el : {-45.0, 0.0, 30.0, 89.0}) {
      const geo::EcefKm target =
          geo::geodetic_to_ecef(obs) +
          direction_from_look(obs, geo::Deg(az), geo::Deg(el)) * 550.0;
      EXPECT_NO_THROW((void)geo::look_angles(obs, target));
    }
  }
}

}  // namespace
}  // namespace starlab::check
