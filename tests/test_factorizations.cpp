// Tests for dense factorizations: Cholesky, LU, QR (plain and pivoted), SVD.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"
#include "common/flops.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/lu.hpp"
#include "linalg/norms.hpp"
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"

namespace hatrix::la {
namespace {

class PotrfSizes : public ::testing::TestWithParam<index_t> {};

TEST_P(PotrfSizes, ReconstructsSpdMatrix) {
  const index_t n = GetParam();
  Rng rng(21);
  Matrix a = Matrix::random_spd(rng, n);
  Matrix l = Matrix::from_view(a.view());
  potrf(l.view());
  // Zero strict upper, then compare L Lᵀ with A.
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < j; ++i) l(i, j) = 0.0;
  Matrix llt(n, n);
  gemm(1.0, l.view(), Trans::No, l.view(), Trans::Yes, 0.0, llt.view());
  EXPECT_LT(rel_error(a.view(), llt.view()), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(SmallToBlocked, PotrfSizes,
                         ::testing::Values(1, 2, 17, 64, 65, 130, 200));

TEST(Potrf, RejectsIndefinite) {
  Matrix a = Matrix::identity(4);
  a(2, 2) = -1.0;
  EXPECT_THROW(potrf(a.view()), Error);
}

TEST(Potrf, RejectsNonSquare) {
  Matrix a(3, 4);
  EXPECT_THROW(potrf(a.view()), Error);
}

TEST(Potrs, SolvesSpdSystem) {
  Rng rng(22);
  const index_t n = 40;
  Matrix a = Matrix::random_spd(rng, n);
  Matrix x_true = Matrix::random_normal(rng, n, 3);
  Matrix b = matmul(a.view(), x_true.view());
  Matrix x = solve_spd(a.view(), b.view());
  EXPECT_LT(rel_error(x_true.view(), x.view()), 1e-10);
}

TEST(Lu, ReconstructsAndSolves) {
  Rng rng(23);
  const index_t n = 50;
  Matrix a = Matrix::random_normal(rng, n, n);
  for (index_t i = 0; i < n; ++i) a(i, i) += 10.0;  // well-conditioned
  Matrix x_true = Matrix::random_normal(rng, n, 2);
  Matrix b = matmul(a.view(), x_true.view());
  Matrix x = solve(a.view(), b.view());
  EXPECT_LT(rel_error(x_true.view(), x.view()), 1e-10);
}

TEST(Lu, PivotsOnZeroDiagonal) {
  Matrix a(2, 2);
  a(0, 0) = 0.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 0.0;
  Matrix b(2, 1);
  b(0, 0) = 3.0;
  b(1, 0) = 5.0;
  Matrix x = solve(a.view(), b.view());
  EXPECT_NEAR(x(0, 0), 5.0, 1e-14);
  EXPECT_NEAR(x(1, 0), 3.0, 1e-14);
}

TEST(Lu, SingularThrows) {
  Matrix a(2, 2);  // all zeros
  EXPECT_THROW(getrf(a.view()), Error);
}

class QrShapes : public ::testing::TestWithParam<std::pair<index_t, index_t>> {};

TEST_P(QrShapes, OrthonormalAndReconstructs) {
  auto [m, n] = GetParam();
  Rng rng(24);
  Matrix a = Matrix::random_normal(rng, m, n);
  auto f = qr(a.view());
  const index_t k = std::min(m, n);
  ASSERT_EQ(f.q.cols(), k);
  ASSERT_EQ(f.r.rows(), k);
  // QᵀQ = I
  Matrix qtq = matmul(f.q.view(), f.q.view(), Trans::Yes, Trans::No);
  EXPECT_LT(rel_error(Matrix::identity(k).view(), qtq.view()), 1e-12);
  // QR = A
  Matrix qr_prod = matmul(f.q.view(), f.r.view());
  EXPECT_LT(rel_error(a.view(), qr_prod.view()), 1e-12);
  // R upper-triangular
  for (index_t j = 0; j < f.r.cols(); ++j)
    for (index_t i = j + 1; i < f.r.rows(); ++i) EXPECT_EQ(f.r(i, j), 0.0);
}

// Panel width 32: shapes straddle one, two and three panels, tall and wide.
INSTANTIATE_TEST_SUITE_P(TallSquareWide, QrShapes,
                         ::testing::Values(std::pair<index_t, index_t>{20, 8},
                                           std::pair<index_t, index_t>{8, 8},
                                           std::pair<index_t, index_t>{8, 20},
                                           std::pair<index_t, index_t>{1, 5},
                                           std::pair<index_t, index_t>{5, 1},
                                           std::pair<index_t, index_t>{100, 37},
                                           std::pair<index_t, index_t>{90, 31},
                                           std::pair<index_t, index_t>{90, 32},
                                           std::pair<index_t, index_t>{90, 33},
                                           std::pair<index_t, index_t>{130, 65},
                                           std::pair<index_t, index_t>{65, 65},
                                           std::pair<index_t, index_t>{33, 90},
                                           std::pair<index_t, index_t>{65, 140}));

TEST(Qr, StridedViewInput) {
  Rng rng(30);
  Matrix big = Matrix::random_normal(rng, 120, 90);
  ConstMatrixView a = big.block(5, 7, 100, 65);
  auto f = qr(a);
  Matrix qr_prod = matmul(f.q.view(), f.r.view());
  EXPECT_LT(rel_error(a, qr_prod.view()), 1e-12);
  Matrix qtq = matmul(f.q.view(), f.q.view(), Trans::Yes, Trans::No);
  EXPECT_LT(rel_error(Matrix::identity(65).view(), qtq.view()), 1e-12);
}

TEST(Qr, FlopsCountedOnceAsClassicalHouseholder) {
  // Reflector j touches rows [j, m) of the n-j-1 columns right of it, and of
  // the k-j columns of Q it builds, at 4 flops per entry; the internal block
  // gemms add nothing, so the count is independent of the panel width.
  const index_t m = 100, n = 70, k = 70;
  std::uint64_t expect = 0;
  for (index_t j = 0; j < k; ++j)
    expect += static_cast<std::uint64_t>(4 * (m - j) * ((n - j - 1) + (k - j)));
  Rng rng(31);
  Matrix a = Matrix::random_normal(rng, m, n);
  flops::Scope scope;
  auto f = qr(a.view());
  EXPECT_EQ(scope.count(), expect);
}

class OrthComplementShapes
    : public ::testing::TestWithParam<std::pair<index_t, index_t>> {};

TEST_P(OrthComplementShapes, CompletesAnOrthogonalBasis) {
  auto [m, k] = GetParam();
  Rng rng(32);
  Matrix u = qr(Matrix::random_normal(rng, m, k).view()).q;
  Matrix c = orth_complement(u.view());
  ASSERT_EQ(c.cols(), m - k);
  Matrix full = hconcat({c.view(), u.view()});
  Matrix ftf = matmul(full.view(), full.view(), Trans::Yes, Trans::No);
  EXPECT_LT(rel_error(Matrix::identity(m).view(), ftf.view()), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(AroundPanelWidth, OrthComplementShapes,
                         ::testing::Values(std::pair<index_t, index_t>{64, 31},
                                           std::pair<index_t, index_t>{64, 32},
                                           std::pair<index_t, index_t>{70, 33},
                                           std::pair<index_t, index_t>{70, 65},
                                           std::pair<index_t, index_t>{160, 80}));

// Householder QR with column pivoting, one full-trailing-update step at a
// time and every column norm recomputed exactly: the reference the blocked
// pivoted QR must reproduce. Same reflector sign convention as la::qr.
struct ReferencePivotedQr {
  std::vector<index_t> perm;
  Matrix r;
};

ReferencePivotedQr reference_pivoted_qr(ConstMatrixView a0, index_t kmax) {
  Matrix a = Matrix::from_view(a0);
  const index_t m = a.rows(), n = a.cols();
  ReferencePivotedQr out;
  for (index_t j = 0; j < n; ++j) out.perm.push_back(j);
  auto trailing_norm = [&](index_t k, index_t j) {
    double s = 0.0;
    for (index_t i = k; i < m; ++i) s += a(i, j) * a(i, j);
    return std::sqrt(s);
  };
  for (index_t k = 0; k < kmax; ++k) {
    index_t p = k;
    for (index_t j = k + 1; j < n; ++j)
      if (trailing_norm(k, j) > trailing_norm(k, p)) p = j;
    for (index_t i = 0; i < m; ++i) std::swap(a(i, k), a(i, p));
    std::swap(out.perm[static_cast<std::size_t>(k)], out.perm[static_cast<std::size_t>(p)]);
    const double alpha = a(k, k), norm = trailing_norm(k, k);
    if (trailing_norm(k + 1, k) == 0.0) continue;  // nothing below the diagonal: H = I
    const double beta = alpha >= 0.0 ? -norm : norm;
    std::vector<double> v(static_cast<std::size_t>(m - k));
    v[0] = 1.0;
    for (index_t i = k + 1; i < m; ++i) v[static_cast<std::size_t>(i - k)] = a(i, k) / (alpha - beta);
    const double tau = (beta - alpha) / beta;
    for (index_t j = k; j < n; ++j) {
      double s = 0.0;
      for (index_t i = k; i < m; ++i) s += v[static_cast<std::size_t>(i - k)] * a(i, j);
      for (index_t i = k; i < m; ++i) a(i, j) -= tau * s * v[static_cast<std::size_t>(i - k)];
    }
  }
  out.r = Matrix(kmax, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i <= std::min(j, kmax - 1); ++i) out.r(i, j) = a(i, j);
  return out;
}

/// Gaussian columns scaled by 0.8^π(j) for a random permutation π: the
/// pivot order is not the natural one, and no two residual norms come close
/// enough for rounding to swap them.
Matrix separated_columns(Rng& rng, index_t m, index_t n) {
  Matrix a = Matrix::random_normal(rng, m, n);
  std::vector<index_t> order(static_cast<std::size_t>(n));
  for (index_t j = 0; j < n; ++j) order[static_cast<std::size_t>(j)] = j;
  std::shuffle(order.begin(), order.end(), rng.engine());
  for (index_t j = 0; j < n; ++j) {
    const double s = std::pow(0.8, static_cast<double>(order[static_cast<std::size_t>(j)]));
    for (index_t i = 0; i < m; ++i) a(i, j) *= s;
  }
  return a;
}

/// A·P reconstructed from Q·R, relative to ‖A‖.
double pivoted_reconstruction_error(ConstMatrixView a, const PivotedQrResult& f) {
  Matrix ap(a.rows, a.cols);
  for (index_t j = 0; j < a.cols; ++j)
    for (index_t i = 0; i < a.rows; ++i) ap(i, j) = a(i, f.perm[static_cast<std::size_t>(j)]);
  Matrix qr_prod = matmul(f.q.view(), f.r.view());
  return rel_error(ap.view(), qr_prod.view());
}

struct PivotedCase {
  index_t m, n, cap;
};

class PivotedQrBlocked : public ::testing::TestWithParam<PivotedCase> {};

TEST_P(PivotedQrBlocked, MatchesUnblockedReference) {
  const auto [m, n, cap] = GetParam();
  Rng rng(33);
  Matrix big = separated_columns(rng, m + 3, n + 2);
  ConstMatrixView a = big.block(3, 2, m, n);  // strided
  auto f = pivoted_qr(a, cap, 0.0);
  const index_t k = std::min({m, n, cap});
  ASSERT_EQ(f.rank, k);
  auto ref = reference_pivoted_qr(a, k);
  EXPECT_EQ(f.perm, ref.perm);
  EXPECT_LT(rel_error(ref.r.view(), f.r.view()), 1e-12);
  Matrix qtq = matmul(f.q.view(), f.q.view(), Trans::Yes, Trans::No);
  EXPECT_LT(rel_error(Matrix::identity(k).view(), qtq.view()), 1e-12);
  if (k == std::min(m, n)) {
    EXPECT_LT(pivoted_reconstruction_error(a, f), 1e-12);
  }

  auto no_q = pivoted_qr(a, cap, 0.0, /*want_q=*/false);
  EXPECT_EQ(no_q.q.cols(), 0);
  EXPECT_EQ(no_q.perm, f.perm);
  EXPECT_EQ(rel_error(f.r.view(), no_q.r.view()), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AroundPanelWidth, PivotedQrBlocked,
                         ::testing::Values(PivotedCase{60, 40, 31}, PivotedCase{60, 40, 32},
                                           PivotedCase{60, 40, 33}, PivotedCase{90, 70, 65},
                                           PivotedCase{120, 100, 100},
                                           PivotedCase{50, 130, 50},
                                           PivotedCase{200, 150, 80}));

TEST(PivotedQr, ToleranceStopInsideABlock) {
  Rng rng(34);
  const index_t m = 120, n = 100, r = 45;  // stops at step 45: block 2, step 13
  Matrix u = Matrix::random_normal(rng, m, r);
  Matrix v = Matrix::random_normal(rng, n, r);
  Matrix a = matmul(u.view(), v.view(), Trans::No, Trans::Yes);
  auto f = pivoted_qr(a.view(), n, 1e-8 * norm_fro(a.view()));
  EXPECT_EQ(f.rank, r);
  EXPECT_LT(pivoted_reconstruction_error(a.view(), f), 1e-12);
}

TEST(PivotedQr, NormRecomputeInsideABlock) {
  // Column 60 is column 10 plus a 1e-9 perturbation. Once one of the pair
  // is the pivot (step ~10, mid-block), the other's downdated norm cancels
  // to nothing and must be recomputed from the trailing rows: its true
  // residual ~1e-8 stays above the tolerance, so the rank is full only if
  // it was, and the pair's second member is the last pivot.
  Rng rng(35);
  const index_t m = 150, n = 90;
  Matrix a = Matrix::random_normal(rng, m, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) a(i, j) *= std::pow(0.9, static_cast<double>(j));
  Matrix noise = Matrix::random_normal(rng, m, 1);
  for (index_t i = 0; i < m; ++i) a(i, 60) = a(i, 10) + 1e-9 * noise(i, 0);
  auto f = pivoted_qr(a.view(), n, 1e-12);
  EXPECT_EQ(f.rank, n);
  const index_t last = f.perm[static_cast<std::size_t>(n - 1)];
  EXPECT_TRUE(last == 10 || last == 60) << "last pivot " << last;
  auto ref = reference_pivoted_qr(a.view(), n);
  EXPECT_EQ(f.perm, ref.perm);
  EXPECT_LT(pivoted_reconstruction_error(a.view(), f), 1e-12);
}

TEST(PivotedQr, ZeroColumnsAreNeverPivoted) {
  Rng rng(36);
  const index_t m = 80, n = 70;
  Matrix a = Matrix::random_normal(rng, m, n);
  for (index_t j : {0, 33, 69})
    for (index_t i = 0; i < m; ++i) a(i, j) = 0.0;
  auto f = pivoted_qr(a.view(), n, 0.0);
  EXPECT_EQ(f.rank, n - 3);
  for (index_t j = 0; j < f.rank; ++j) {
    const index_t p = f.perm[static_cast<std::size_t>(j)];
    EXPECT_TRUE(p != 0 && p != 33 && p != 69) << "zero column " << p << " pivoted";
  }
  EXPECT_LT(pivoted_reconstruction_error(a.view(), f), 1e-12);
}

TEST(PivotedQr, BlockedRankCap) {
  Rng rng(37);
  Matrix a = Matrix::random_normal(rng, 100, 90);
  auto f = pivoted_qr(a.view(), 40, 0.0);
  EXPECT_EQ(f.rank, 40);
  EXPECT_EQ(f.q.cols(), 40);
  EXPECT_EQ(f.r.rows(), 40);
  Matrix qtq = matmul(f.q.view(), f.q.view(), Trans::Yes, Trans::No);
  EXPECT_LT(rel_error(Matrix::identity(40).view(), qtq.view()), 1e-12);
  // The selected columns are reproduced exactly: A P(:, 0:40) = Q R(:, 0:40).
  Matrix sel(100, 40);
  for (index_t j = 0; j < 40; ++j)
    for (index_t i = 0; i < 100; ++i) sel(i, j) = a(i, f.perm[static_cast<std::size_t>(j)]);
  Matrix rec = matmul(f.q.view(), f.r.block(0, 0, 40, 40));
  EXPECT_LT(rel_error(sel.view(), rec.view()), 1e-12);
}

// Σx² underflows to 0 below ~1e-154 and overflows above ~1e154; reflector
// and column norms must be computed with scaling (dnrm2/dlarfg) to survive.
class QrExtremeScale : public ::testing::TestWithParam<double> {};

TEST_P(QrExtremeScale, FactorsWithoutUnderOrOverflow) {
  const double s = GetParam();
  for (auto [m, n] : {std::pair<index_t, index_t>{40, 20}, std::pair<index_t, index_t>{90, 70}}) {
    Rng rng(38);
    Matrix unit = Matrix::random_normal(rng, m, n);
    Matrix a = Matrix::from_view(unit.view());
    la::scale(a.view(), s);

    auto f = qr(a.view());
    la::scale(f.r.view(), 1.0 / s);
    Matrix rec = matmul(f.q.view(), f.r.view());
    EXPECT_LT(rel_error(unit.view(), rec.view()), 1e-12) << m << "x" << n;

    auto p = pivoted_qr(a.view(), n, 0.0);
    EXPECT_EQ(p.rank, n) << m << "x" << n;
    la::scale(p.r.view(), 1.0 / s);
    EXPECT_LT(pivoted_reconstruction_error(unit.view(), p), 1e-12) << m << "x" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(TinyAndHuge, QrExtremeScale, ::testing::Values(1e-170, 1e160));

TEST(PivotedQr, ExactRankRecovery) {
  Rng rng(25);
  const index_t m = 40, n = 30, r = 7;
  Matrix u = Matrix::random_normal(rng, m, r);
  Matrix v = Matrix::random_normal(rng, n, r);
  Matrix a = matmul(u.view(), v.view(), Trans::No, Trans::Yes);
  auto f = pivoted_qr(a.view(), std::min(m, n), 1e-8);
  EXPECT_EQ(f.rank, r);
  // Q R Pᵀ must reconstruct A: column perm[j] of A equals (Q R)(:, j).
  Matrix qr_prod = matmul(f.q.view(), f.r.view());
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i)
      EXPECT_NEAR(a(i, f.perm[static_cast<std::size_t>(j)]), qr_prod(i, j), 1e-9);
}

TEST(PivotedQr, MaxRankCapRespected) {
  Rng rng(26);
  Matrix a = Matrix::random_normal(rng, 30, 30);
  auto f = pivoted_qr(a.view(), 5, 0.0);
  EXPECT_EQ(f.rank, 5);
  EXPECT_EQ(f.q.cols(), 5);
  Matrix qtq = matmul(f.q.view(), f.q.view(), Trans::Yes, Trans::No);
  EXPECT_LT(rel_error(Matrix::identity(5).view(), qtq.view()), 1e-12);
}

TEST(PivotedQr, DecreasingDiagonalOfR) {
  Rng rng(27);
  Matrix a = Matrix::random_normal(rng, 25, 25);
  auto f = pivoted_qr(a.view(), 25, 0.0);
  for (index_t i = 1; i < f.rank; ++i)
    EXPECT_LE(std::abs(f.r(i, i)), std::abs(f.r(i - 1, i - 1)) + 1e-12);
}

TEST(PivotedQr, ZeroMatrixHasRankZero) {
  Matrix a(10, 10);
  auto f = pivoted_qr(a.view(), 10, 1e-14);
  EXPECT_EQ(f.rank, 0);
}

class SvdShapes : public ::testing::TestWithParam<std::pair<index_t, index_t>> {};

TEST_P(SvdShapes, FactorsAreOrthonormalAndReconstruct) {
  auto [m, n] = GetParam();
  Rng rng(28);
  Matrix a = Matrix::random_normal(rng, m, n);
  auto f = svd(a.view());
  const index_t k = std::min(m, n);
  ASSERT_EQ(static_cast<index_t>(f.s.size()), k);
  Matrix utu = matmul(f.u.view(), f.u.view(), Trans::Yes, Trans::No);
  Matrix vtv = matmul(f.v.view(), f.v.view(), Trans::Yes, Trans::No);
  EXPECT_LT(rel_error(Matrix::identity(k).view(), utu.view()), 1e-10);
  EXPECT_LT(rel_error(Matrix::identity(k).view(), vtv.view()), 1e-10);
  // U diag(s) Vᵀ = A
  Matrix us = Matrix::from_view(f.u.view());
  for (index_t j = 0; j < k; ++j)
    for (index_t i = 0; i < m; ++i) us(i, j) *= f.s[static_cast<std::size_t>(j)];
  Matrix rec = matmul(us.view(), f.v.view(), Trans::No, Trans::Yes);
  EXPECT_LT(rel_error(a.view(), rec.view()), 1e-10);
  // Descending order.
  for (index_t i = 1; i < k; ++i)
    EXPECT_LE(f.s[static_cast<std::size_t>(i)], f.s[static_cast<std::size_t>(i - 1)] + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(TallSquareWide, SvdShapes,
                         ::testing::Values(std::pair<index_t, index_t>{30, 10},
                                           std::pair<index_t, index_t>{12, 12},
                                           std::pair<index_t, index_t>{10, 30},
                                           std::pair<index_t, index_t>{64, 5}));

TEST(Svd, SingularValuesOfKnownMatrix) {
  // diag(3, 2, 1) has singular values 3, 2, 1.
  Matrix a(3, 3);
  a(0, 0) = 3;
  a(1, 1) = 2;
  a(2, 2) = 1;
  auto f = svd(a.view());
  EXPECT_NEAR(f.s[0], 3.0, 1e-12);
  EXPECT_NEAR(f.s[1], 2.0, 1e-12);
  EXPECT_NEAR(f.s[2], 1.0, 1e-12);
}

TEST(Svd, NumericalRankThreshold) {
  std::vector<double> s{10.0, 1.0, 1e-9, 0.0};
  EXPECT_EQ(numerical_rank(s, 1e-6), 2);
  EXPECT_EQ(numerical_rank(s, 1e-12), 3);
}

TEST(Norms, KnownValues) {
  Matrix a(2, 2);
  a(0, 0) = 3;
  a(1, 1) = 4;
  EXPECT_DOUBLE_EQ(norm_fro(a.view()), 5.0);
  EXPECT_DOUBLE_EQ(norm_max(a.view()), 4.0);
  EXPECT_DOUBLE_EQ(norm2(std::vector<double>{3.0, 4.0}), 5.0);
}

TEST(Norms, TwoNormEstimateMatchesLargestSingularValue) {
  Rng rng(29);
  Matrix a = Matrix::random_normal(rng, 20, 15);
  auto f = svd(a.view());
  EXPECT_NEAR(norm2_estimate(a.view(), 100), f.s[0], 1e-6 * f.s[0]);
}

}  // namespace
}  // namespace hatrix::la
