#include "lowrank/adaptive.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/blas.hpp"

namespace hatrix::lr {

namespace {

Matrix interp_error(la::ConstMatrixView p, la::ConstMatrixView x,
                    const std::vector<index_t>& sel) {
  Matrix e = Matrix::from_view(p);
  if (!sel.empty()) {
    Matrix psk = la::gather_rows(p, sel);
    la::gemm(-1.0, x, la::Trans::No, psk.view(), la::Trans::No, 1.0, e.view());
  }
  return e;
}

}  // namespace

double interp_residual_maxcol(la::ConstMatrixView p, la::ConstMatrixView x,
                              const std::vector<index_t>& sel) {
  if (p.rows == 0 || p.cols == 0) return 0.0;
  Matrix e = interp_error(p, x, sel);
  double worst = 0.0;
  for (index_t j = 0; j < e.cols(); ++j) {
    double s = 0.0;
    for (index_t i = 0; i < e.rows(); ++i) s += e(i, j) * e(i, j);
    worst = std::max(worst, s);
  }
  return std::sqrt(worst);
}

}  // namespace hatrix::lr
