#include "constellation/spatial_index.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "geo/angles.hpp"
#include "geo/frames.hpp"
#include "geo/wgs.hpp"

namespace starlab::constellation {

namespace {

/// Drag/precession bounds hold for |t - element epoch| up to this horizon.
constexpr double kHorizonMinutes = 30.0 * 24.0 * 60.0;

/// Fixed cross-track slack [rad]: geodetic-vs-geocentric observer tilt
/// (<= 0.0034 rad) plus J2 short-period position periodics (~10 km at
/// Starlink radius, ~0.0015 rad), rounded way up.
constexpr double kBaseMargin = 0.02;

/// A member whose own drift bound exceeds this [rad] would poison its
/// bucket's margin; it goes on the always-candidate list instead.
constexpr double kMaxMemberMargin = 0.5;

/// Radial slack factor for J2 short-period radius periodics.
constexpr double kRadialSlop = 0.005;

/// Bucket quantization: inclination and reference-epoch RAAN [rad].
const double kInclBin = geo::deg_to_rad(0.25);
const double kNodeBin = geo::deg_to_rad(2.0);

constexpr double kTwoPi = geo::kTwoPi;
using geo::wrap_two_pi;

/// Orbital-plane unit normal for (inclination, RAAN).
geo::Vec3 plane_normal(double incl, double node) {
  const double sini = std::sin(incl);
  return {std::sin(node) * sini, -std::cos(node) * sini, std::cos(incl)};
}

}  // namespace

void SpatialIndex::build(const sgp4::SoaConstants& soa) {
  const std::size_t n = soa.size();
  size_ = n;
  planes_.clear();
  always_.clear();
  u_ref_.assign(n, 0.0);
  udot_.assign(n, 0.0);
  horizon_eff_ = -1.0;
  if (n == 0) return;

  t_ref_ = soa.epoch(0);
  const double h = kHorizonMinutes;
  const double h2 = h * h;
  double max_epoch_offset = 0.0;

  std::map<std::pair<long, long>, std::size_t> bucket_of;
  for (std::size_t i = 0; i < n; ++i) {
    const sgp4::CommonConstants c = soa.load(i);
    const double dt0 = t_ref_.minutes_since(c.epoch);
    max_epoch_offset = std::max(max_epoch_offset, std::fabs(dt0));

    // Eccentricity can grow (or shrink) under drag; bound it over the
    // horizon from the secular tempe terms.
    const double e_max = c.ecco + std::fabs(c.bstar * c.cc4) * h +
                         2.0 * std::fabs(c.bstar * c.cc5);

    // Along-track slack: true-vs-mean anomaly (<= 2e + O(e^2), bounded by
    // 2.5 e for the near-circular shells) plus every secular term the
    // linear u(t) model drops — the templ polynomial scaled back to mean
    // anomaly, and the nodecf quadratic that shifts where u is measured
    // from. The omgcof/xmcof periodic terms cancel exactly in
    // u = mm + argpm and need no slack.
    const double drag_u =
        c.no_unkozai *
            (std::fabs(c.t2cof) * h2 + std::fabs(c.t3cof) * h2 * h +
             std::fabs(c.t4cof) * h2 * h2 + std::fabs(c.t5cof) * h2 * h2 * h) +
        std::fabs(c.nodecf) * h2;
    const double along = 2.5 * e_max + drag_u;
    if (!(along <= kMaxMemberMargin)) {  // also catches NaN
      always_.push_back(static_cast<std::uint32_t>(i));
      continue;
    }

    const double udot = c.mdot + c.argpdot;
    u_ref_[i] = wrap_two_pi(c.argpo + c.mo + udot * dt0);
    udot_[i] = udot;

    // Geocentric radius bound: Brouwer semi-major axis inflated by the
    // drag envelope and apogee, plus short-period slop.
    const double tempa_max = 1.0 + std::fabs(c.cc1) * h + std::fabs(c.d2) * h2 +
                             std::fabs(c.d3) * h2 * h + std::fabs(c.d4) * h2 * h2;
    const double r_max = c.ao * tempa_max * tempa_max * (1.0 + e_max) *
                         geo::kWgs72.radius_km * (1.0 + kRadialSlop);

    const double node_ref = wrap_two_pi(c.nodeo + c.nodedot * dt0);
    const auto key = std::make_pair(
        static_cast<long>(std::floor(c.inclo / kInclBin)),
        static_cast<long>(std::floor(node_ref / kNodeBin)));
    auto [it, inserted] = bucket_of.try_emplace(key, planes_.size());
    if (inserted) {
      Plane p;
      p.incl = c.inclo;
      p.sin_incl = std::sin(c.inclo);
      p.cos_incl = std::cos(c.inclo);
      p.node_ref = node_ref;
      p.nodedot = c.nodedot;
      planes_.push_back(std::move(p));
    }
    Plane& plane = planes_[it->second];

    // Cross-track slack vs the bucket representative: plane-normal offset
    // at t_ref, nodal-rate divergence over the horizon, and the dropped
    // nodecf quadratic.
    const double plane_dev =
        plane_normal(c.inclo, node_ref)
            .angle_to(plane_normal(plane.incl, plane.node_ref)) +
        std::fabs(c.nodedot - plane.nodedot) * h + std::fabs(c.nodecf) * h2;

    plane.margin = std::max(plane.margin, along + plane_dev);
    plane.r_sat_max = std::max(plane.r_sat_max, r_max);
    plane.members.push_back(static_cast<std::uint32_t>(i));
  }

  for (Plane& p : planes_) p.margin += kBaseMargin;
  horizon_eff_ = kHorizonMinutes - max_epoch_offset;
}

bool SpatialIndex::candidates(const geo::Geodetic& observer,
                              const time::JulianDate& jd,
                              geo::Deg min_elevation,
                              std::vector<std::uint32_t>& out) const {
  if (horizon_eff_ <= 0.0) return false;
  const double el = geo::deg_to_rad(min_elevation.value());
  // The psi_max(el) relation assumes a positive elevation cut.
  if (!(el >= 0.0)) return false;
  const double dtq = jd.minutes_since(t_ref_);
  if (std::fabs(dtq) > horizon_eff_) return false;

  const geo::EcefKm obs_ecef = geo::geodetic_to_ecef(observer);
  const double r_obs = obs_ecef.norm();
  const geo::Vec3 o = geo::ecef_to_teme(obs_ecef, jd).raw().normalized();
  const double cos_el = std::cos(el);

  out.clear();
  for (const Plane& plane : planes_) {
    // Visibility half-angle for this bucket's highest member, widened by
    // the bucket's conservative slack.
    const double rho = std::min(1.0, r_obs / plane.r_sat_max);
    const double lambda = std::acos(rho * cos_el) - el + plane.margin;
    const double cl = std::cos(lambda);

    const double node = plane.node_ref + plane.nodedot * dtq;
    const double sin_node = std::sin(node);
    const double cos_node = std::cos(node);
    // Direction at argument of latitude u is P cos u + Q sin u.
    const double a = o.x * cos_node + o.y * sin_node;
    const double b = -o.x * plane.cos_incl * sin_node +
                     o.y * plane.cos_incl * cos_node + o.z * plane.sin_incl;
    const double hyp = std::hypot(a, b);
    if (hyp < cl) continue;  // the whole circle misses the cone

    double delta = geo::kPi;
    if (hyp > 1e-12) {
      delta = std::acos(std::clamp(cl / hyp, -1.0, 1.0));
    } else if (cl > 0.0) {
      continue;
    }
    const double u_star = std::atan2(b, a);

    for (const std::uint32_t m : plane.members) {
      const double du =
          std::remainder(u_ref_[m] + udot_[m] * dtq - u_star, kTwoPi);
      if (std::fabs(du) <= delta) out.push_back(m);
    }
  }
  out.insert(out.end(), always_.begin(), always_.end());
  std::sort(out.begin(), out.end());
  return true;
}

}  // namespace starlab::constellation
