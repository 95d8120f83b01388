#include "lowrank/lowrank.hpp"

#include <vector>

#include "common/error.hpp"
#include "linalg/blas.hpp"
#include "linalg/norms.hpp"

namespace hatrix::lr {

LowRank::LowRank(Matrix u_, Matrix v_) : u(std::move(u_)), v(std::move(v_)) {
  HATRIX_CHECK(u.cols() == v.cols(), "LowRank factor rank mismatch");
}

Matrix LowRank::dense() const {
  return la::matmul(u.view(), v.view(), la::Trans::No, la::Trans::Yes);
}

void LowRank::matvec(double alpha, const double* x, double beta, double* y) const {
  std::vector<double> t(static_cast<std::size_t>(rank()), 0.0);
  la::gemv(1.0, v.view(), la::Trans::Yes, x, 0.0, t.data());
  la::gemv(alpha, u.view(), la::Trans::No, t.data(), beta, y);
}

void LowRank::matvec_trans(double alpha, const double* x, double beta, double* y) const {
  std::vector<double> t(static_cast<std::size_t>(rank()), 0.0);
  la::gemv(1.0, u.view(), la::Trans::Yes, x, 0.0, t.data());
  la::gemv(alpha, v.view(), la::Trans::No, t.data(), beta, y);
}

double approx_error(const LowRank& lr, la::ConstMatrixView reference) {
  Matrix d = lr.dense();
  return la::rel_error(reference, d.view());
}

}  // namespace hatrix::lr
