#pragma once

// Strong unit types for the quantities the pipeline confuses most easily:
// degrees vs radians and kilometres vs everything else. Each wrapper is a
// single double with an *explicit* constructor, so passing radians where
// degrees are expected — the silent catastrophe in a TLE -> SGP4 -> look
// angle -> DTW chain — is a compile error instead of a corrupted Fig 3.
//
// Conventions (see docs/STATIC_ANALYSIS.md):
//   * Public APIs on the high-risk call chains take/return Deg, Rad, Km,
//     TemeKm or EcefKm (frame_vec.hpp). Plain-data structs may keep raw
//     `double *_deg` fields for serialization compatibility, but expose
//     typed accessors (e.g. LookAngles::azimuth()).
//   * Conversions are explicit and constexpr: to_rad(Deg), to_deg(Rad).
//   * scripts/lint.sh bans *new* raw `double *_deg/_rad/_km` declarations
//     outside src/geo/ (existing ones are baselined).
//
// All wrappers are zero-overhead: no virtuals, no invariants enforced at
// construction, layout-identical to double.

#include "geo/angles.hpp"

namespace starlab::geo {

/// One physical quantity: a double tagged with its unit. Arithmetic stays
/// within the unit; scaling by a dimensionless factor is allowed; the ratio
/// of two like quantities is dimensionless.
template <class Tag>
class Quantity {
 public:
  constexpr Quantity() = default;
  explicit constexpr Quantity(double v) : v_(v) {}

  [[nodiscard]] constexpr double value() const { return v_; }

  [[nodiscard]] friend constexpr Quantity operator+(Quantity a, Quantity b) {
    return Quantity(a.v_ + b.v_);
  }
  [[nodiscard]] friend constexpr Quantity operator-(Quantity a, Quantity b) {
    return Quantity(a.v_ - b.v_);
  }
  [[nodiscard]] constexpr Quantity operator-() const { return Quantity(-v_); }
  [[nodiscard]] friend constexpr Quantity operator*(Quantity a, double s) {
    return Quantity(a.v_ * s);
  }
  [[nodiscard]] friend constexpr Quantity operator*(double s, Quantity a) {
    return Quantity(s * a.v_);
  }
  [[nodiscard]] friend constexpr Quantity operator/(Quantity a, double s) {
    return Quantity(a.v_ / s);
  }
  /// Ratio of two like quantities (dimensionless).
  [[nodiscard]] friend constexpr double operator/(Quantity a, Quantity b) {
    return a.v_ / b.v_;
  }
  constexpr Quantity& operator+=(Quantity o) {
    v_ += o.v_;
    return *this;
  }
  constexpr Quantity& operator-=(Quantity o) {
    v_ -= o.v_;
    return *this;
  }

  [[nodiscard]] friend constexpr auto operator<=>(Quantity a, Quantity b) {
    return a.v_ <=> b.v_;
  }
  [[nodiscard]] friend constexpr bool operator==(Quantity a, Quantity b) {
    return a.v_ == b.v_;
  }

 private:
  double v_ = 0.0;
};

struct DegTag {};
struct RadTag {};
struct KmTag {};

/// An angle in degrees (the paper's public-facing unit).
using Deg = Quantity<DegTag>;
/// An angle in radians (internal trigonometry).
using Rad = Quantity<RadTag>;
/// A distance in kilometres (the library-wide length unit).
using Km = Quantity<KmTag>;

[[nodiscard]] constexpr Rad to_rad(Deg d) { return Rad(d.value() * kRadPerDeg); }
[[nodiscard]] constexpr Deg to_deg(Rad r) { return Deg(r.value() * kDegPerRad); }

/// Typed overloads of the raw-double angle helpers in angles.hpp.
[[nodiscard]] inline Deg wrap_360(Deg d) { return Deg(wrap_360(d.value())); }
[[nodiscard]] inline Deg wrap_180(Deg d) { return Deg(wrap_180(d.value())); }
[[nodiscard]] inline Rad wrap_two_pi(Rad r) { return Rad(wrap_two_pi(r.value())); }

namespace literals {
[[nodiscard]] constexpr Deg operator""_deg(long double v) {
  return Deg(static_cast<double>(v));
}
[[nodiscard]] constexpr Deg operator""_deg(unsigned long long v) {
  return Deg(static_cast<double>(v));
}
[[nodiscard]] constexpr Rad operator""_rad(long double v) {
  return Rad(static_cast<double>(v));
}
[[nodiscard]] constexpr Rad operator""_rad(unsigned long long v) {
  return Rad(static_cast<double>(v));
}
[[nodiscard]] constexpr Km operator""_km(long double v) {
  return Km(static_cast<double>(v));
}
[[nodiscard]] constexpr Km operator""_km(unsigned long long v) {
  return Km(static_cast<double>(v));
}
}  // namespace literals

}  // namespace starlab::geo
