// Scaling-parameter coverage for the triangular solve (alpha != 1 path)
// and gemm alpha==0 short-circuit — gaps the main BLAS suite left open.
#include <gtest/gtest.h>

#include "linalg/blas.hpp"
#include "linalg/norms.hpp"

namespace hatrix::la {
namespace {

Matrix lower_tri(Rng& rng, index_t n) {
  Matrix t = Matrix::random_normal(rng, n, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < j; ++i) t(i, j) = 0.0;
    t(j, j) = 3.0 + std::abs(t(j, j));
  }
  return t;
}

TEST(BlasAlpha, TrsmScalesSolution) {
  Rng rng(701);
  Matrix t = lower_tri(rng, 6);
  Matrix b = Matrix::random_normal(rng, 6, 3);
  Matrix x1 = Matrix::from_view(b.view());
  trsm(Side::Left, UpLo::Lower, Trans::No, Diag::NonUnit, 1.0, t.view(), x1.view());
  Matrix x2 = Matrix::from_view(b.view());
  trsm(Side::Left, UpLo::Lower, Trans::No, Diag::NonUnit, -2.5, t.view(), x2.view());
  for (index_t j = 0; j < 3; ++j)
    for (index_t i = 0; i < 6; ++i) EXPECT_NEAR(x2(i, j), -2.5 * x1(i, j), 1e-12);
}

TEST(BlasAlpha, GemmAlphaZeroLeavesScaledC) {
  Rng rng(703);
  Matrix a = Matrix::random_normal(rng, 4, 4);
  Matrix c = Matrix::identity(4);
  gemm(0.0, a.view(), Trans::No, a.view(), Trans::No, 3.0, c.view());
  for (index_t j = 0; j < 4; ++j)
    for (index_t i = 0; i < 4; ++i) EXPECT_EQ(c(i, j), i == j ? 3.0 : 0.0);
}

TEST(BlasAlpha, SyrkAlphaSign) {
  Rng rng(704);
  Matrix a = Matrix::random_normal(rng, 5, 3);
  Matrix c1(5, 5), c2(5, 5);
  syrk(1.0, a.view(), Trans::No, 0.0, c1.view());
  syrk(-1.0, a.view(), Trans::No, 0.0, c2.view());
  add_scaled(c2.view(), 1.0, c1.view());
  EXPECT_LT(norm_max(c2.view()), 1e-14);
}

TEST(BlasAlpha, GemvBetaAccumulation) {
  Rng rng(705);
  Matrix a = Matrix::random_normal(rng, 3, 3);
  std::vector<double> x{1.0, 1.0, 1.0};
  std::vector<double> y1(3, 5.0), y2(3, 5.0);
  gemv(2.0, a.view(), Trans::No, x.data(), 0.0, y1.data());
  gemv(2.0, a.view(), Trans::No, x.data(), 1.0, y2.data());
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(y2[i], y1[i] + 5.0, 1e-13);
}

}  // namespace
}  // namespace hatrix::la
