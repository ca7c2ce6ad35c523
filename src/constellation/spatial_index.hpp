#pragma once

// Spatial candidate index over a catalog's orbital planes.
//
// visible_from() answers "which satellites clear `min_elevation` from this
// observer right now?". The exhaustive answer tests every satellite, but a
// Walker constellation has structure the query can exploit: satellites live
// on a small number of orbital planes (inclination × RAAN), and from any
// ground point the visibility cone intersects each plane's great circle in
// at most one short arc of argument of latitude. The index buckets
// satellites by (quantized inclination, quantized RAAN at a reference
// epoch), and a query
//   1. rotates the observer into TEME and computes the visibility half-angle
//      psi_max = acos(rho * cos(el_min)) - el_min  (rho = r_obs / r_sat);
//   2. per plane bucket, intersects the cone with the plane's circle: with
//      P = (cos O, sin O, 0), Q = (-cos i sin O, cos i cos O, sin i), the
//      direction at argument of latitude u is P cos u + Q sin u, so
//      cos(angle to observer) = h * cos(u - u*) with A = obs.P, B = obs.Q,
//      h = hypot(A, B), u* = atan2(B, A). The plane contributes no
//      candidates when h < cos(lambda), else the arc |u - u*| <= delta with
//      delta = acos(cos(lambda) / h);
//   3. per member, tests the satellite's mean argument of latitude
//      u_i(t) = u_ref_i + udot_i * (t - t_ref) against the arc.
//
// lambda folds every modelling error into one conservative bound:
// psi_max(r_sat_max) + a fixed base margin (geodetic-vs-geocentric tilt,
// J2 short-period periodics) + per-bucket plane deviation (quantization
// spread plus nodal-drift divergence over the horizon) + per-bucket
// along-track slack (2.5 e for true-vs-mean anomaly plus bounded drag
// drift). The arc test is therefore a *superset* filter: every satellite
// actually above the cut is a candidate, and the caller re-runs the exact
// per-satellite check, so results are byte-identical to the exhaustive
// scan (unit-tested in test_spatial_index.cpp).
//
// Satellites the bounds cannot tame (drag drift beyond kMaxMemberMargin
// within the horizon) go on an always-candidate list instead of poisoning
// their bucket. Queries outside the index's validity window — elevation
// below zero or an instant beyond the drag horizon — report not-indexable
// and the caller falls back to the exhaustive scan.

#include <cstdint>
#include <vector>

#include "geo/geodetic.hpp"
#include "geo/units.hpp"
#include "sgp4/batch.hpp"
#include "time/julian_date.hpp"

namespace starlab::constellation {

class SpatialIndex {
 public:
  SpatialIndex() = default;

  /// Build from the catalog's precomputed SGP4 constant sets. Index i in the
  /// SoA is the catalog index reported back from candidates().
  void build(const sgp4::SoaConstants& soa);

  /// Fill `out` with a superset of the catalog indices visible above
  /// `min_elevation` from `observer` at `jd`, in ascending index order.
  /// Returns false (leaving `out` unspecified) when the query falls outside
  /// the index's validity window and the caller must scan exhaustively.
  [[nodiscard]] bool candidates(const geo::Geodetic& observer,
                                const time::JulianDate& jd,
                                geo::Deg min_elevation,
                                std::vector<std::uint32_t>& out) const;

  // starlint:allow(reachability): test seam; tests check the plane bucketing
  [[nodiscard]] std::size_t num_planes() const { return planes_.size(); }
  // starlint:allow(reachability): test seam; tests check the plane bucketing
  [[nodiscard]] std::size_t num_always() const { return always_.size(); }

 private:
  struct Plane {
    double incl = 0.0;      ///< representative inclination [rad]
    double sin_incl = 0.0;  ///< sin(incl), evaluated once at build
    double cos_incl = 1.0;  ///< cos(incl), evaluated once at build
    double node_ref = 0.0;  ///< representative RAAN at t_ref [rad]
    double nodedot = 0.0;   ///< representative nodal rate [rad/min]
    double r_sat_max = 0.0; ///< max member geocentric radius bound [km]
    double margin = 0.0;    ///< cross+along-track slack added to psi_max [rad]
    std::vector<std::uint32_t> members;  ///< catalog indices, ascending
  };

  std::vector<Plane> planes_;
  std::vector<std::uint32_t> always_;  ///< unindexable members, ascending
  /// Per-satellite mean argument of latitude at t_ref and its rate, indexed
  /// by catalog index (zeros for always_-listed members).
  std::vector<double> u_ref_;
  std::vector<double> udot_;
  time::JulianDate t_ref_;
  /// Query window [t_ref - h, t_ref + h] within which the drag/precession
  /// bounds hold [minutes]; negative when the index is unusable.
  double horizon_eff_ = -1.0;
  std::size_t size_ = 0;
};

}  // namespace starlab::constellation
