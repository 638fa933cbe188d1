// Planar geometry primitives: points and Euclidean distance.
//
// The paper's experiments normalize the POI space into a unit square; all
// coordinates in this library live in [0, 1] x [0, 1] unless noted.

#ifndef PPGNN_GEO_POINT_H_
#define PPGNN_GEO_POINT_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <ostream>

namespace ppgnn {

/// A 2-D location.
struct Point {
  double x = 0.0;
  double y = 0.0;

  friend bool operator==(const Point& a, const Point& b) {
    return a.x == b.x && a.y == b.y;
  }
};

inline std::ostream& operator<<(std::ostream& os, const Point& p) {
  return os << "(" << p.x << ", " << p.y << ")";
}

/// Squared Euclidean distance (cheaper; monotone in the true distance).
inline double SquaredDistance(const Point& a, const Point& b) {
  double dx = a.x - b.x;
  double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

/// Euclidean distance.
inline double Distance(const Point& a, const Point& b) {
  return std::sqrt(SquaredDistance(a, b));
}

/// out[s] = Distance(from, {xs[s], ys[s]}) for s < count, bit for bit.
/// SSE2 targets compute two points per instruction (point.cc).
void EuclideanDistances(const Point& from, const double* xs,
                        const double* ys, size_t count, double* out);

/// A POI: a location plus a stable identifier into the LSP database.
struct Poi {
  uint32_t id = 0;
  Point location;
};

}  // namespace ppgnn

#endif  // PPGNN_GEO_POINT_H_
