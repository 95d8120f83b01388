#include "geometry/domain.hpp"

#include <cmath>

#include "common/error.hpp"

namespace hatrix::geom {

double dist(const Point& a, const Point& b) {
  const double dx = a.x[0] - b.x[0];
  const double dy = a.x[1] - b.x[1];
  const double dz = a.x[2] - b.x[2];
  return std::sqrt(dx * dx + dy * dy + dz * dz);
}

Domain grid2d(index_t n) {
  HATRIX_CHECK(n > 0, "grid2d needs n > 0");
  Domain d;
  const auto side = static_cast<index_t>(std::ceil(std::sqrt(static_cast<double>(n))));
  const double h = side > 1 ? 1.0 / static_cast<double>(side - 1) : 0.0;
  d.points.reserve(static_cast<std::size_t>(n));
  for (index_t i = 0; i < side && static_cast<index_t>(d.points.size()) < n; ++i)
    for (index_t j = 0; j < side && static_cast<index_t>(d.points.size()) < n; ++j)
      d.points.push_back(Point{{static_cast<double>(i) * h, static_cast<double>(j) * h, 0.0}});
  return d;
}

Domain circle2d(index_t n) {
  HATRIX_CHECK(n > 0, "circle2d needs n > 0");
  Domain d;
  d.points.reserve(static_cast<std::size_t>(n));
  const double two_pi = 2.0 * 3.14159265358979323846;
  for (index_t i = 0; i < n; ++i) {
    const double t = two_pi * static_cast<double>(i) / static_cast<double>(n);
    d.points.push_back(Point{{std::cos(t), std::sin(t), 0.0}});
  }
  return d;
}

Domain random2d(index_t n, Rng& rng) {
  Domain d;
  d.points.reserve(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i)
    d.points.push_back(Point{{rng.uniform(), rng.uniform(), 0.0}});
  return d;
}

}  // namespace hatrix::geom
