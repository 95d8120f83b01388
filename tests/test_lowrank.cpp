// Tests for the low-rank block type and the compressors (pivoted QR, SVD)
// plus rounded addition.
#include <gtest/gtest.h>

#include <cmath>

#include "geometry/domain.hpp"
#include "kernels/kernel_matrix.hpp"
#include "kernels/kernels.hpp"
#include "linalg/blas.hpp"
#include "linalg/norms.hpp"
#include "lowrank/compress.hpp"
#include "lowrank/lowrank.hpp"

namespace hatrix::lr {
namespace {

Matrix make_rank_k(Rng& rng, index_t m, index_t n, index_t k) {
  Matrix u = Matrix::random_normal(rng, m, k);
  Matrix v = Matrix::random_normal(rng, n, k);
  return la::matmul(u.view(), v.view(), la::Trans::No, la::Trans::Yes);
}

// A kernel block between two separated clusters: numerically low rank with
// fast singular value decay (the admissible-block situation).
Matrix far_field_block(index_t m, index_t n) {
  geom::Domain src = geom::grid2d(m);
  geom::Domain dst = geom::grid2d(n);
  for (auto& p : dst.points) p[0] += 3.0;  // separate the clusters
  kernels::Matern kern(1.0, 0.7, 0.5);
  la::Matrix a(m, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i)
      a(i, j) = kern(src.points[static_cast<std::size_t>(i)],
                     dst.points[static_cast<std::size_t>(j)]);
  return a;
}

TEST(LowRank, ShapeAndDense) {
  Rng rng(41);
  Matrix u = Matrix::random_normal(rng, 6, 2);
  Matrix v = Matrix::random_normal(rng, 4, 2);
  LowRank lr(Matrix::from_view(u.view()), Matrix::from_view(v.view()));
  EXPECT_EQ(lr.rows(), 6);
  EXPECT_EQ(lr.cols(), 4);
  EXPECT_EQ(lr.rank(), 2);
  Matrix expect = la::matmul(u.view(), v.view(), la::Trans::No, la::Trans::Yes);
  EXPECT_LT(la::rel_error(expect.view(), lr.dense().view()), 1e-15);
}

TEST(LowRank, RankMismatchThrows) {
  Matrix u(3, 2), v(3, 1);
  EXPECT_THROW(LowRank(std::move(u), std::move(v)), Error);
}

TEST(LowRank, MatvecMatchesDense) {
  Rng rng(42);
  LowRank lr(Matrix::random_normal(rng, 8, 3), Matrix::random_normal(rng, 5, 3));
  std::vector<double> x = rng.normal_vector(5);
  std::vector<double> y(8, 1.0);
  lr.matvec(2.0, x.data(), 0.5, y.data());
  Matrix d = lr.dense();
  std::vector<double> y_ref(8, 1.0);
  la::gemv(2.0, d.view(), la::Trans::No, x.data(), 0.5, y_ref.data());
  for (std::size_t i = 0; i < 8; ++i) EXPECT_NEAR(y[i], y_ref[i], 1e-12);
}

TEST(LowRank, MatvecTransMatchesDense) {
  Rng rng(43);
  LowRank lr(Matrix::random_normal(rng, 8, 3), Matrix::random_normal(rng, 5, 3));
  std::vector<double> x = rng.normal_vector(8);
  std::vector<double> y(5, 0.0);
  lr.matvec_trans(1.0, x.data(), 0.0, y.data());
  Matrix d = lr.dense();
  std::vector<double> y_ref(5, 0.0);
  la::gemv(1.0, d.view(), la::Trans::Yes, x.data(), 0.0, y_ref.data());
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(y[i], y_ref[i], 1e-12);
}

TEST(Compress, ExactForTrueLowRank) {
  Rng rng(44);
  Matrix a = make_rank_k(rng, 30, 20, 5);
  LowRank lr = compress(a.view(), 10, 1e-10);
  EXPECT_LE(lr.rank(), 6);
  EXPECT_LT(approx_error(lr, a.view()), 1e-9);
}

TEST(Compress, UHasOrthonormalColumns) {
  Rng rng(45);
  Matrix a = make_rank_k(rng, 30, 20, 5);
  LowRank lr = compress(a.view(), 5, 0.0);
  Matrix utu = la::matmul(lr.u.view(), lr.u.view(), la::Trans::Yes, la::Trans::No);
  EXPECT_LT(la::rel_error(Matrix::identity(5).view(), utu.view()), 1e-12);
}

TEST(Compress, RankCapGivesBestEffort) {
  Matrix a = far_field_block(40, 40);
  LowRank lr3 = compress(a.view(), 3, 0.0);
  LowRank lr10 = compress(a.view(), 10, 0.0);
  EXPECT_EQ(lr3.rank(), 3);
  // More rank, better approximation (monotone improvement).
  EXPECT_LT(approx_error(lr10, a.view()), approx_error(lr3, a.view()));
}

TEST(TruncatedSvd, OptimalityBeatsQrAtSameRank) {
  Matrix a = far_field_block(36, 44);
  LowRank qr_lr = compress(a.view(), 4, 0.0);
  LowRank svd_lr = truncated_svd(a.view(), 4, 0.0);
  // SVD truncation is optimal in Frobenius norm; allow equality tolerance.
  EXPECT_LE(approx_error(svd_lr, a.view()),
            approx_error(qr_lr, a.view()) * (1.0 + 1e-10));
}

TEST(TruncatedSvd, ToleranceControlsRank) {
  Matrix a = far_field_block(40, 40);
  LowRank tight = truncated_svd(a.view(), 40, 1e-12);
  LowRank loose = truncated_svd(a.view(), 40, 1e-3);
  EXPECT_GT(tight.rank(), loose.rank());
  EXPECT_LT(approx_error(tight, a.view()), 1e-10);
}

TEST(Recompress, ReducesInflatedRank) {
  Rng rng(46);
  Matrix base = make_rank_k(rng, 25, 25, 3);
  // Inflate: represent with rank 12 factors.
  LowRank fat = compress(base.view(), 12, 0.0);
  LowRank slim = recompress(fat, 12, 1e-10);
  EXPECT_LE(slim.rank(), 4);
  EXPECT_LT(approx_error(slim, base.view()), 1e-9);
}

TEST(LrAddRound, MatchesDenseSum) {
  Rng rng(47);
  Matrix a = make_rank_k(rng, 20, 15, 3);
  Matrix b = make_rank_k(rng, 20, 15, 2);
  LowRank la_ = compress(a.view(), 3, 0.0);
  LowRank lb = compress(b.view(), 2, 0.0);
  LowRank sum = lr_add_round(2.0, la_, -1.0, lb, 10, 1e-12);
  Matrix expect = Matrix::from_view(a.view());
  la::scale(expect.view(), 2.0);
  la::add_scaled(expect.view(), -1.0, b.view());
  EXPECT_LT(approx_error(sum, expect.view()), 1e-9);
  EXPECT_LE(sum.rank(), 5);
}

TEST(LrAddRound, RespectsMaxRankCap) {
  Rng rng(48);
  LowRank a(Matrix::random_normal(rng, 30, 6), Matrix::random_normal(rng, 30, 6));
  LowRank b(Matrix::random_normal(rng, 30, 6), Matrix::random_normal(rng, 30, 6));
  LowRank sum = lr_add_round(1.0, a, 1.0, b, 4, 0.0);
  EXPECT_LE(sum.rank(), 4);
}

TEST(Compressors, AgreeOnFarFieldBlock) {
  Matrix a = far_field_block(40, 40);
  const index_t k = 12;
  double e_qr = approx_error(compress(a.view(), k, 0.0), a.view());
  double e_svd = approx_error(truncated_svd(a.view(), k, 0.0), a.view());
  // Within an order of magnitude of the optimal truncation.
  EXPECT_LT(e_qr, 10.0 * e_svd + 1e-14);
}

}  // namespace
}  // namespace hatrix::lr
