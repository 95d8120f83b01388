#pragma once
/// \file domain.hpp
/// \brief Point sets the kernel matrices are built on.
///
/// The paper evaluates every implementation on a uniform 2D grid geometry
/// (Sec. 5); we provide that plus the other standard BEM/geostatistics
/// layouts (circle boundary, random 2D clouds) so examples can exercise
/// realistic scenarios.

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace hatrix::geom {

using index_t = std::int64_t;

/// A point in up to three dimensions (unused coordinates are zero).
struct Point {
  std::array<double, 3> x{0.0, 0.0, 0.0};

  double operator[](std::size_t d) const { return x[d]; }
  double& operator[](std::size_t d) { return x[d]; }
};

/// Euclidean distance.
double dist(const Point& a, const Point& b);

/// A finite point set.
struct Domain {
  std::vector<Point> points;

  [[nodiscard]] index_t size() const { return static_cast<index_t>(points.size()); }
};

/// Uniform grid over the unit square with ~n points (rounded to a full
/// ceil(sqrt(n)) x ... grid truncated to exactly n points, row-major order).
/// This is the geometry of the paper's evaluation.
Domain grid2d(index_t n);

/// n equispaced points on the unit circle (a 2D BEM boundary).
Domain circle2d(index_t n);

/// n uniform random points in the unit square.
Domain random2d(index_t n, Rng& rng);

}  // namespace hatrix::geom
