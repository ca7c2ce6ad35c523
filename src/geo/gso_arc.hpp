#pragma once

// Geometry of the geostationary (GSO) arc as seen from a ground location.
//
// 47 CFR § 25.289 obliges NGSO systems to protect GSO networks: a LEO
// satellite must not transmit to/from a terminal while it sits (as seen from
// that terminal) within a protection angle of the GSO arc. The paper (§5.1)
// identifies this rule as the reason Starlink's global scheduler points
// northern-hemisphere terminals high and north.
//
// GsoArc samples the visible arc once per site. `separation` is the exact
// reference: the smallest `sky_separation` from a sky position to any
// sample. `excluded` answers "separation < protection" without trig per
// sample: the constructor also stores each sample's unit sky direction, and
// a query takes the largest dot product of the candidate's direction with
// them. Because acos is decreasing, that maximum decides the predicate
// against cos(protection) outright whenever it lies more than a fixed band
// of 1e-9 away from it. That band is far wider than the rounding that
// separates a dot product from the law-of-cosines value `separation`
// computes. Inside the band, for an empty arc, and for non-finite or
// out-of-range input (a protection outside [0, 180] degrees among it),
// `excluded` returns `separation(az, el) < protection` itself, so the two
// always agree.

#include <vector>

#include "check/hotpath.hpp"
#include "geo/geodetic.hpp"
#include "geo/topocentric.hpp"
#include "geo/units.hpp"
#include "geo/vec3.hpp"

namespace starlab::geo {

class GsoArc {
 public:
  /// Precompute the GSO arc in the sky of `site`. The arc is sampled at
  /// `step` of GSO longitude across all longitudes where the arc is above
  /// `min_elevation`. `step` must be finite and positive.
  explicit GsoArc(const Geodetic& site, Deg step = Deg(0.5),
                  Deg min_elevation = Deg(-5.0));

  /// Smallest angular separation between the sky position (az, el) and the
  /// visible GSO arc. Returns a +inf-like large value (1e9 deg) if no part
  /// of the arc is visible from the site (|latitude| > ~81 deg).
  [[nodiscard]] STARLAB_HOTPATH Deg separation(Deg azimuth,
                                               Deg elevation) const;

  /// True if the sky position violates the GSO exclusion zone of
  /// `protection` half-width. Always equal to
  /// `separation(azimuth, elevation) < protection`.
  [[nodiscard]] STARLAB_HOTPATH bool excluded(Deg azimuth, Deg elevation,
                                              Deg protection) const;

  /// The sampled arc (for plotting and tests). Ordered by GSO longitude.
  [[nodiscard]] const std::vector<LookAngles>& samples() const {
    return samples_;
  }

  /// Highest elevation the arc reaches in this sky (the arc's culmination,
  /// due south in the northern hemisphere).
  [[nodiscard]] Deg max_elevation() const { return max_elevation_; }

 private:
  std::vector<LookAngles> samples_;
  std::vector<Vec3> directions_;  ///< unit sky vector of each sample
  Deg max_elevation_{-90.0};
};

}  // namespace starlab::geo
