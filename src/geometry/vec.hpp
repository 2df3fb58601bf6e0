// 2-D vector type for ground-user and UAV positions.
//
// Coordinates are meters.  Users live on the ground plane (z = 0); UAVs
// hover at a common altitude H_uav (paper §II-A), so the geometry is 2-D
// and the channel model folds the altitude in where it needs it.
#pragma once

#include <cmath>

namespace uavcov {

struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  constexpr Vec2() = default;
  constexpr Vec2(double x_, double y_) : x(x_), y(y_) {}

  constexpr Vec2 operator+(Vec2 o) const { return {x + o.x, y + o.y}; }
  constexpr Vec2 operator-(Vec2 o) const { return {x - o.x, y - o.y}; }
  constexpr Vec2 operator*(double s) const { return {x * s, y * s}; }
  constexpr Vec2 operator/(double s) const { return {x / s, y / s}; }
  constexpr bool operator==(const Vec2&) const = default;

  constexpr double dot(Vec2 o) const { return x * o.x + y * o.y; }
  constexpr double norm2() const { return dot(*this); }
  double norm() const { return std::sqrt(norm2()); }
};

/// Euclidean distance between two ground-plane points.
inline double distance(Vec2 a, Vec2 b) { return (a - b).norm(); }

/// Squared distance (cheaper; used in range tests).
inline constexpr double distance2(Vec2 a, Vec2 b) { return (a - b).norm2(); }

}  // namespace uavcov
