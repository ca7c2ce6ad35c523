#pragma once

// Minimal 3-vector for orbital mechanics. Value type, constexpr-friendly.

#include <cmath>

namespace starlab::geo {

struct Vec3 {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;

  constexpr Vec3 operator+(const Vec3& o) const { return {x + o.x, y + o.y, z + o.z}; }
  constexpr Vec3 operator-(const Vec3& o) const { return {x - o.x, y - o.y, z - o.z}; }
  constexpr Vec3 operator*(double s) const { return {x * s, y * s, z * s}; }
  constexpr Vec3 operator/(double s) const { return {x / s, y / s, z / s}; }
  constexpr Vec3 operator-() const { return {-x, -y, -z}; }

  constexpr Vec3& operator+=(const Vec3& o) {
    x += o.x; y += o.y; z += o.z;
    return *this;
  }
  constexpr Vec3& operator-=(const Vec3& o) {
    x -= o.x; y -= o.y; z -= o.z;
    return *this;
  }

  [[nodiscard]] constexpr double dot(const Vec3& o) const {
    return x * o.x + y * o.y + z * o.z;
  }

  [[nodiscard]] double norm() const { return std::sqrt(dot(*this)); }

  [[nodiscard]] constexpr double norm_sq() const { return dot(*this); }

  /// Unit vector. Returns the zero vector unchanged if the norm underflows.
  [[nodiscard]] Vec3 normalized() const {
    const double n = norm();
    if (n <= 0.0) return *this;
    return *this / n;
  }

  /// Angle in radians between this vector and another, in [0, pi].
  [[nodiscard]] double angle_to(const Vec3& o) const {
    const double denom = norm() * o.norm();
    if (denom <= 0.0) return 0.0;
    double c = dot(o) / denom;
    if (c > 1.0) c = 1.0;
    if (c < -1.0) c = -1.0;
    return std::acos(c);
  }
};

constexpr Vec3 operator*(double s, const Vec3& v) { return v * s; }

}  // namespace starlab::geo
