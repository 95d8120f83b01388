// Tests for the BLAS-style kernels: gemm/syrk/trsm/gemv against naive
// references, including all transpose/side/uplo variants (parameterized).
#include <gtest/gtest.h>

#include "common/flops.hpp"
#include "linalg/blas.hpp"
#include "linalg/norms.hpp"

namespace hatrix::la {
namespace {

Matrix naive_matmul(ConstMatrixView a, Trans ta, ConstMatrixView b, Trans tb) {
  const index_t m = ta == Trans::No ? a.rows : a.cols;
  const index_t k = ta == Trans::No ? a.cols : a.rows;
  const index_t n = tb == Trans::No ? b.cols : b.rows;
  Matrix c(m, n);
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (index_t l = 0; l < k; ++l) {
        const double av = ta == Trans::No ? a(i, l) : a(l, i);
        const double bv = tb == Trans::No ? b(l, j) : b(j, l);
        s += av * bv;
      }
      c(i, j) = s;
    }
  return c;
}

class GemmVariants : public ::testing::TestWithParam<std::tuple<Trans, Trans>> {};

TEST_P(GemmVariants, MatchesNaive) {
  auto [ta, tb] = GetParam();
  Rng rng(11);
  const index_t m = 7, k = 5, n = 6;
  Matrix a = Matrix::random_normal(rng, ta == Trans::No ? m : k, ta == Trans::No ? k : m);
  Matrix b = Matrix::random_normal(rng, tb == Trans::No ? k : n, tb == Trans::No ? n : k);
  Matrix c = Matrix::random_normal(rng, m, n);
  Matrix expect = naive_matmul(a.view(), ta, b.view(), tb);
  // C := 2*op(A)op(B) + 3*C
  Matrix c_in = Matrix::from_view(c.view());
  gemm(2.0, a.view(), ta, b.view(), tb, 3.0, c.view());
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i)
      EXPECT_NEAR(c(i, j), 2.0 * expect(i, j) + 3.0 * c_in(i, j), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(AllTrans, GemmVariants,
                         ::testing::Combine(::testing::Values(Trans::No, Trans::Yes),
                                            ::testing::Values(Trans::No, Trans::Yes)));

TEST(Gemm, BetaZeroOverwritesGarbage) {
  Rng rng(12);
  Matrix a = Matrix::random_normal(rng, 3, 3);
  Matrix b = Matrix::random_normal(rng, 3, 3);
  Matrix c(3, 3);
  fill(c.view(), std::numeric_limits<double>::quiet_NaN());
  gemm(1.0, a.view(), Trans::No, b.view(), Trans::No, 0.0, c.view());
  Matrix expect = naive_matmul(a.view(), Trans::No, b.view(), Trans::No);
  EXPECT_LT(rel_error(expect.view(), c.view()), 1e-13);
}

TEST(Gemm, InnerDimensionMismatchThrows) {
  Matrix a(3, 4), b(5, 2), c(3, 2);
  EXPECT_THROW(gemm(1.0, a.view(), Trans::No, b.view(), Trans::No, 0.0, c.view()),
               Error);
}

TEST(Syrk, MatchesGemmBothOrientations) {
  Rng rng(13);
  Matrix a = Matrix::random_normal(rng, 6, 4);
  Matrix c1(6, 6), c2(4, 4);
  syrk(1.0, a.view(), Trans::No, 0.0, c1.view());
  syrk(1.0, a.view(), Trans::Yes, 0.0, c2.view());
  Matrix e1 = naive_matmul(a.view(), Trans::No, a.view(), Trans::Yes);
  Matrix e2 = naive_matmul(a.view(), Trans::Yes, a.view(), Trans::No);
  EXPECT_LT(rel_error(e1.view(), c1.view()), 1e-13);
  EXPECT_LT(rel_error(e2.view(), c2.view()), 1e-13);
}

TEST(Syrk, AccumulatesWithBeta) {
  Rng rng(14);
  Matrix a = Matrix::random_normal(rng, 5, 3);
  Matrix c = Matrix::identity(5);
  syrk(-1.0, a.view(), Trans::No, 2.0, c.view());
  Matrix expect = Matrix::identity(5);
  scale(expect.view(), 2.0);
  Matrix aat = naive_matmul(a.view(), Trans::No, a.view(), Trans::Yes);
  add_scaled(expect.view(), -1.0, aat.view());
  EXPECT_LT(rel_error(expect.view(), c.view()), 1e-13);
}

// Build a well-conditioned triangular matrix for solve tests.
Matrix make_triangular(Rng& rng, index_t n, UpLo uplo, Diag diag) {
  Matrix t = Matrix::random_normal(rng, n, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) {
      const bool keep = uplo == UpLo::Lower ? i >= j : i <= j;
      if (!keep) t(i, j) = 0.0;
    }
  for (index_t i = 0; i < n; ++i)
    t(i, i) = diag == Diag::Unit ? 1.0 : 3.0 + std::abs(t(i, i));
  return t;
}

class TrsmVariants
    : public ::testing::TestWithParam<std::tuple<Side, UpLo, Trans, Diag>> {};

TEST_P(TrsmVariants, SolvesAgainstTrmm) {
  auto [side, uplo, trans, diag] = GetParam();
  Rng rng(15);
  const index_t n = 6, nrhs = 4;
  Matrix t = make_triangular(rng, n, uplo, diag);
  Matrix b = side == Side::Left ? Matrix::random_normal(rng, n, nrhs)
                                : Matrix::random_normal(rng, nrhs, n);
  Matrix x = Matrix::from_view(b.view());
  trsm(side, uplo, trans, diag, 1.0, t.view(), x.view());
  // Verify by multiplying back with the reference gemm on op(T) as a dense
  // matrix (a unit diagonal is implicit, so write it out).
  Matrix dense = Matrix::from_view(t.view());
  if (diag == Diag::Unit)
    for (index_t i = 0; i < n; ++i) dense(i, i) = 1.0;
  Matrix back(b.rows(), b.cols());
  if (side == Side::Left) {
    ref::gemm(1.0, dense.view(), trans, x.view(), Trans::No, 0.0, back.view());
  } else {
    ref::gemm(1.0, x.view(), Trans::No, dense.view(), trans, 0.0, back.view());
  }
  EXPECT_LT(rel_error(b.view(), back.view()), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, TrsmVariants,
    ::testing::Combine(::testing::Values(Side::Left, Side::Right),
                       ::testing::Values(UpLo::Lower, UpLo::Upper),
                       ::testing::Values(Trans::No, Trans::Yes),
                       ::testing::Values(Diag::NonUnit, Diag::Unit)));

TEST(Trsm, GarbageInOppositeTriangleIsIgnored) {
  Rng rng(17);
  Matrix t = make_triangular(rng, 5, UpLo::Lower, Diag::NonUnit);
  // Poison the strict upper triangle: trsm must never read it.
  for (index_t j = 1; j < 5; ++j)
    for (index_t i = 0; i < j; ++i) t(i, j) = std::numeric_limits<double>::quiet_NaN();
  Matrix b = Matrix::random_normal(rng, 5, 2);
  Matrix x = Matrix::from_view(b.view());
  trsm(Side::Left, UpLo::Lower, Trans::No, Diag::NonUnit, 1.0, t.view(), x.view());
  for (index_t j = 0; j < 2; ++j)
    for (index_t i = 0; i < 5; ++i) EXPECT_FALSE(std::isnan(x(i, j)));
}

TEST(Gemv, BothTransposes) {
  Rng rng(18);
  Matrix a = Matrix::random_normal(rng, 4, 3);
  std::vector<double> x{1.0, -2.0, 0.5};
  std::vector<double> y(4, 1.0);
  gemv(1.0, a.view(), Trans::No, x.data(), 2.0, y.data());
  for (index_t i = 0; i < 4; ++i) {
    double s = 2.0;
    for (index_t j = 0; j < 3; ++j) s += a(i, j) * x[static_cast<std::size_t>(j)];
    EXPECT_NEAR(y[static_cast<std::size_t>(i)], s, 1e-13);
  }
  std::vector<double> xt{1.0, 2.0, 3.0, 4.0};
  std::vector<double> yt(3, 0.0);
  gemv(1.0, a.view(), Trans::Yes, xt.data(), 0.0, yt.data());
  for (index_t j = 0; j < 3; ++j) {
    double s = 0.0;
    for (index_t i = 0; i < 4; ++i) s += a(i, j) * xt[static_cast<std::size_t>(i)];
    EXPECT_NEAR(yt[static_cast<std::size_t>(j)], s, 1e-13);
  }
}

TEST(Blas, FlopCountGemmCubicScaling) {
  Rng rng(19);
  Matrix a = Matrix::random_normal(rng, 32, 32);
  Matrix c(32, 32);
  hatrix::flops::reset();
  gemm(1.0, a.view(), Trans::No, a.view(), Trans::No, 0.0, c.view());
  EXPECT_EQ(hatrix::flops::total(), 2ull * 32 * 32 * 32);
}

}  // namespace
}  // namespace hatrix::la
