#pragma once

// Frame-tagged 3-vectors. SGP4 emits TEME (inertial) positions; ground
// geometry lives in ECEF (Earth-fixed). Handing a TEME vector to an ECEF
// consumer is numerically plausible and silently wrong by up to the full
// rotation of the Earth — the exact bug class that corrupts trajectory
// matching. FrameVec3<TEME> and FrameVec3<ECEF> make that a compile error:
// the only bridges between the two are geo::teme_to_ecef / geo::ecef_to_teme
// (frames.hpp), which demand the time of the rotation.
//
// The wrapper is zero-overhead: a Vec3 by value, all operations constexpr
// passthroughs. Frame-preserving arithmetic (sums, scaling, cross products)
// stays typed; `raw()` is the explicit escape hatch at boundaries that are
// genuinely frame-agnostic (e.g. rotate_z).

#include "geo/units.hpp"
#include "geo/vec3.hpp"

namespace starlab::geo {

/// Frame tag: True Equator, Mean Equinox — SGP4's native inertial frame.
struct TEME {
  static constexpr const char* name = "TEME";
};
/// Frame tag: Earth-centred, Earth-fixed.
struct ECEF {
  static constexpr const char* name = "ECEF";
};

template <class Frame>
class FrameVec3 {
 public:
  constexpr FrameVec3() = default;
  constexpr FrameVec3(double x, double y, double z) : v_{x, y, z} {}
  /// Tagging an untyped vector is an explicit claim about its frame.
  explicit constexpr FrameVec3(const Vec3& v) : v_(v) {}

  [[nodiscard]] constexpr const Vec3& raw() const { return v_; }
  [[nodiscard]] constexpr double x() const { return v_.x; }
  [[nodiscard]] constexpr double y() const { return v_.y; }
  [[nodiscard]] constexpr double z() const { return v_.z; }

  [[nodiscard]] constexpr FrameVec3 operator+(const FrameVec3& o) const {
    return FrameVec3(v_ + o.v_);
  }
  [[nodiscard]] constexpr FrameVec3 operator-(const FrameVec3& o) const {
    return FrameVec3(v_ - o.v_);
  }
  [[nodiscard]] constexpr FrameVec3 operator*(double s) const {
    return FrameVec3(v_ * s);
  }
  [[nodiscard]] constexpr FrameVec3 operator/(double s) const {
    return FrameVec3(v_ / s);
  }
  [[nodiscard]] constexpr FrameVec3 operator-() const { return FrameVec3(-v_); }
  constexpr FrameVec3& operator+=(const FrameVec3& o) {
    v_ += o.v_;
    return *this;
  }
  constexpr FrameVec3& operator-=(const FrameVec3& o) {
    v_ -= o.v_;
    return *this;
  }

  [[nodiscard]] constexpr double dot(const FrameVec3& o) const {
    return v_.dot(o.v_);
  }
  [[nodiscard]] double norm() const { return v_.norm(); }
  [[nodiscard]] constexpr double norm_sq() const { return v_.norm_sq(); }
  [[nodiscard]] FrameVec3 normalized() const { return FrameVec3(v_.normalized()); }
  /// Angle [rad] between this vector and another in the same frame.
  [[nodiscard]] Rad angle_to(const FrameVec3& o) const {
    return Rad(v_.angle_to(o.v_));
  }

 private:
  Vec3 v_;
};

template <class Frame>
[[nodiscard]] constexpr FrameVec3<Frame> operator*(double s,
                                                   const FrameVec3<Frame>& v) {
  return v * s;
}

/// A TEME-frame position/direction in kilometres.
using TemeKm = FrameVec3<TEME>;
/// An ECEF-frame position/direction in kilometres.
using EcefKm = FrameVec3<ECEF>;

}  // namespace starlab::geo
