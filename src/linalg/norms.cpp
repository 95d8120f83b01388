#include "linalg/norms.hpp"

#include <cmath>

#include "common/error.hpp"

namespace hatrix::la {

double norm_fro(ConstMatrixView a) {
  double s = 0.0;
  for (index_t j = 0; j < a.cols; ++j)
    for (index_t i = 0; i < a.rows; ++i) s += a(i, j) * a(i, j);
  return std::sqrt(s);
}

double norm_max(ConstMatrixView a) {
  double m = 0.0;
  for (index_t j = 0; j < a.cols; ++j)
    for (index_t i = 0; i < a.rows; ++i) m = std::max(m, std::abs(a(i, j)));
  return m;
}

double norm2(const std::vector<double>& x) {
  double s = 0.0;
  for (double v : x) s += v * v;
  return std::sqrt(s);
}

double rel_error(ConstMatrixView a, ConstMatrixView b) {
  HATRIX_CHECK(a.rows == b.rows && a.cols == b.cols, "rel_error shape mismatch");
  double num = 0.0, den = 0.0;
  for (index_t j = 0; j < a.cols; ++j)
    for (index_t i = 0; i < a.rows; ++i) {
      const double d = a(i, j) - b(i, j);
      num += d * d;
      den += a(i, j) * a(i, j);
    }
  if (den == 0.0) return num == 0.0 ? 0.0 : std::sqrt(num);
  return std::sqrt(num / den);
}

}  // namespace hatrix::la
