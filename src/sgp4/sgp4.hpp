#pragma once

// SGP4 orbit propagator (near-Earth variant), after Vallado et al.,
// "Revisiting Spacetrack Report #3" (AIAA 2006-6753) and the reference
// implementation in Vallado's sgp4unit.
//
// This is the same propagator the paper runs (via Skyfield) on CelesTrak
// TLEs to compute candidate satellite positions for every 15-second slot.
// Only the near-Earth branch is implemented: every Starlink shell orbits
// with a period around 95 minutes, far below the 225-minute deep-space
// threshold; constructing an Sgp4 from a deep-space element set throws.
//
// The propagator is split into two halves so a whole catalog can run in a
// tight batch loop (constellation::Catalog stores one CommonConstants per
// satellite in structure-of-arrays form):
//   * init_common_constants — the Kozai -> Brouwer recovery plus every
//     secular/periodic coefficient, computed once per element set;
//   * propagate_common — the per-step evaluation, a pure function of
//     (constants, tsince) with a non-throwing status so batch loops pay no
//     exception machinery per satellite.
// Sgp4 remains the single-satellite facade over exactly these two halves,
// so the batch path is bit-identical to Sgp4::propagate by construction.
//
// Frames/units: input TLE mean elements (WGS-72), output position [km] and
// velocity [km/s] in the TEME frame at the requested time since epoch.

#include <stdexcept>

#include "geo/vec3.hpp"
#include "time/julian_date.hpp"
#include "tle/tle.hpp"

namespace starlab::sgp4 {

/// Thrown when an element set cannot be initialized (deep-space orbit,
/// nonsensical elements) or when propagation leaves SGP4's domain (orbit
/// decay, eccentricity blow-up from drag).
class Sgp4Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Position/velocity state in TEME.
struct StateVector {
  geo::Vec3 position_km;
  geo::Vec3 velocity_km_s;
};

/// Everything propagate_common needs that does not depend on tsince: the
/// original mean elements plus every precomputed secular/periodic
/// coefficient (names follow the reference implementation). One instance
/// per element set, computed once by init_common_constants.
struct CommonConstants {
  time::JulianDate epoch;

  // Original mean elements (radians, rad/min).
  double ecco = 0.0, inclo = 0.0, nodeo = 0.0, argpo = 0.0, mo = 0.0;
  double bstar = 0.0;
  double no_unkozai = 0.0;

  // Precomputed coefficients.
  bool isimp = false;
  double aycof = 0.0, con41 = 0.0, cc1 = 0.0, cc4 = 0.0, cc5 = 0.0;
  double d2 = 0.0, d3 = 0.0, d4 = 0.0, delmo = 0.0, eta = 0.0;
  double argpdot = 0.0, omgcof = 0.0, sinmao = 0.0, t2cof = 0.0;
  double t3cof = 0.0, t4cof = 0.0, t5cof = 0.0, x1mth2 = 0.0;
  double x7thm1 = 0.0, mdot = 0.0, nodedot = 0.0, xlcof = 0.0;
  double xmcof = 0.0, nodecf = 0.0;
  /// Brouwer semi-major axis at epoch [earth radii] — also the exact value
  /// of pow(xke / no_unkozai, 2/3), reused by propagate_common so the hot
  /// loop skips one pow per call.
  double ao = 0.0;
};

/// Outcome of the non-throwing propagation core. Batch loops branch on the
/// status; the single-satellite facade converts non-kOk to Sgp4Error.
enum class PropagateStatus {
  kOk,
  kEccentricityOutOfRange,
  kNegativeSemiLatusRectum,
  kDecayed,
};

/// Initialize the full constant set from a parsed TLE. Performs the
/// Kozai -> Brouwer mean-motion recovery. Throws Sgp4Error on invalid or
/// deep-space elements.
[[nodiscard]] CommonConstants init_common_constants(const tle::Tle& tle);

/// Propagate to `tsince_minutes` after the element-set epoch (negative
/// values propagate backwards). Pure function of its arguments; never
/// throws — out-of-domain states are reported through the status and leave
/// `out` unspecified.
[[nodiscard]] PropagateStatus propagate_common(const CommonConstants& c,
                                               double tsince_minutes,
                                               StateVector& out) noexcept;

/// Throwing wrapper over propagate_common with the historical Sgp4 error
/// messages.
[[nodiscard]] StateVector propagate_or_throw(const CommonConstants& c,
                                             double tsince_minutes);

class Sgp4 {
 public:
  /// Initialize the propagator from a parsed TLE. Performs the Kozai ->
  /// Brouwer mean-motion recovery and precomputes all secular/periodic
  /// coefficients. Throws Sgp4Error on invalid or deep-space elements.
  explicit Sgp4(const tle::Tle& tle) : c_(init_common_constants(tle)) {}

  /// Propagate to `tsince_minutes` after the element-set epoch (negative
  /// values propagate backwards). Throws Sgp4Error if the orbit leaves the
  /// propagator's domain.
  [[nodiscard]] StateVector propagate(double tsince_minutes) const {
    return propagate_or_throw(c_, tsince_minutes);
  }

  /// Propagate to an absolute UTC instant.
  [[nodiscard]] StateVector propagate_to(const time::JulianDate& jd) const {
    return propagate(jd.minutes_since(c_.epoch));
  }

  /// Element-set epoch.

  /// The precomputed constant set (e.g. for structure-of-arrays storage).
  [[nodiscard]] const CommonConstants& constants() const { return c_; }

 private:
  CommonConstants c_;
};

}  // namespace starlab::sgp4
