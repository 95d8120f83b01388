// Tests for the baselines: dense tile Cholesky (DPLASMA-style) and BLR tile
// Cholesky (LORAPO-style) — correctness vs dense reference, adaptivity,
// complexity measurements.
#include <gtest/gtest.h>

#include <cmath>

#include "blrchol/blr_cholesky.hpp"
#include "blrchol/blr_cholesky_tasks.hpp"
#include "common/flops.hpp"
#include "format/accessor.hpp"
#include "format/hss_builder.hpp"
#include "geometry/cluster_tree.hpp"
#include "kernels/kernel_matrix.hpp"
#include "kernels/kernels.hpp"
#include "linalg/blas.hpp"
#include "linalg/norms.hpp"
#include "runtime/thread_pool_executor.hpp"
#include "ulv/hss_ulv.hpp"

namespace hatrix::blrchol {
namespace {

struct Problem {
  geom::Domain domain;
  std::unique_ptr<geom::ClusterTree> tree;
  std::unique_ptr<kernels::Kernel> kernel;
  std::unique_ptr<kernels::KernelMatrix> km;

  Problem(la::index_t n, la::index_t leaf, const std::string& kname = "yukawa") {
    domain = geom::grid2d(n);
    tree = std::make_unique<geom::ClusterTree>(domain, leaf);
    kernel = kernels::make_kernel(kname);
    km = std::make_unique<kernels::KernelMatrix>(*kernel, tree->points());
  }
};

double vec_rel_err(const std::vector<double>& a, const std::vector<double>& b) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num += (a[i] - b[i]) * (a[i] - b[i]);
    den += a[i] * a[i];
  }
  return std::sqrt(num / den);
}

/// Dense tile Cholesky of `a`: emit_dense_cholesky_dag run on one worker.
/// The DAG leaves the strict upper triangle as it was; zero it so the result
/// is L exactly as la::ref::potrf returns it.
Matrix dag_cholesky(const Matrix& a, la::index_t tile) {
  rt::TaskGraph graph;
  DenseCholDag dag = emit_dense_cholesky_dag(a.view(), a.rows(), tile, graph, true);
  rt::ThreadPoolExecutor(1).run(graph);
  Matrix l = std::move(*dag.state);
  for (la::index_t j = 1; j < l.cols(); ++j)
    for (la::index_t i = 0; i < j; ++i) l(i, j) = 0.0;
  return l;
}

class TileCholSizes
    : public ::testing::TestWithParam<std::pair<la::index_t, la::index_t>> {};

TEST_P(TileCholSizes, MatchesUnblockedCholesky) {
  auto [n, tile] = GetParam();
  Rng rng(91);
  Matrix a = Matrix::random_spd(rng, n);
  Matrix ref = Matrix::from_view(a.view());
  la::ref::potrf(ref.view());
  Matrix tiled = dag_cholesky(a, tile);
  EXPECT_LT(la::rel_error(ref.view(), tiled.view()), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TileCholSizes,
    ::testing::Values(std::pair<la::index_t, la::index_t>{64, 16},
                      std::pair<la::index_t, la::index_t>{100, 32},
                      std::pair<la::index_t, la::index_t>{128, 128},
                      std::pair<la::index_t, la::index_t>{130, 64},
                      std::pair<la::index_t, la::index_t>{37, 8}));

TEST(TileCholesky, RejectsIndefinite) {
  Matrix a = Matrix::identity(32);
  a(20, 20) = -1.0;
  // Rows 16..23 form tile 2; the typed error names it.
  try {
    (void)dag_cholesky(a, 8);
    FAIL() << "expected TilePivotError";
  } catch (const TilePivotError& e) {
    EXPECT_EQ(e.tile(), 2);
  }
}

TEST(TileCholesky, NumTiles) {
  EXPECT_EQ(num_tiles(100, 32), 4);
  EXPECT_EQ(num_tiles(96, 32), 3);
  EXPECT_EQ(num_tiles(1, 32), 1);
}

class BlrCholKernels : public ::testing::TestWithParam<const char*> {};

TEST_P(BlrCholKernels, SolvesCompressedOperatorExactly) {
  Problem p(1024, 256, GetParam());
  fmt::KernelAccessor acc(*p.km);
  auto blr = fmt::build_blr(acc, {.tile_size = 256, .max_rank = 256, .tol = 1e-9});
  auto f = BLRCholesky::factorize(blr, {.max_rank = 256, .tol = 1e-12});
  Rng rng(92);
  std::vector<double> b = rng.normal_vector(1024);
  std::vector<double> ab;
  blr.matvec(b, ab);
  auto x = f.solve(ab);
  // Residual limited only by the rounded additions (1e-12) and conditioning.
  EXPECT_LT(vec_rel_err(b, x), 1e-6) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(PaperKernels, BlrCholKernels,
                         ::testing::Values("laplace2d", "yukawa", "matern"));

TEST(BlrCholesky, AccurateAgainstTrueKernelMatrix) {
  Problem p(1024, 256, "yukawa");
  fmt::KernelAccessor acc(*p.km);
  auto blr = fmt::build_blr(acc, {.tile_size = 256, .max_rank = 256, .tol = 1e-10});
  auto f = BLRCholesky::factorize(blr, {.max_rank = 256, .tol = 1e-12});
  Rng rng(93);
  std::vector<double> b = rng.normal_vector(1024);
  std::vector<double> ab;
  p.km->matvec(b, ab);  // true dense matvec
  auto x = f.solve(ab);
  EXPECT_LT(vec_rel_err(b, x), 1e-6);
}

TEST(BlrCholesky, FactorReconstructsLLT) {
  Problem p(512, 128, "matern");
  fmt::KernelAccessor acc(*p.km);
  auto blr = fmt::build_blr(acc, {.tile_size = 128, .max_rank = 128, .tol = 1e-12});
  auto f = BLRCholesky::factorize(blr, {.max_rank = 128, .tol = 1e-14});
  Matrix l = f.factor().dense();
  // dense() mirrors the lower triangle into the upper; rebuild L by zeroing
  // the strict upper before forming L·Lᵀ.
  for (la::index_t j = 0; j < l.cols(); ++j)
    for (la::index_t i = 0; i < j; ++i) l(i, j) = 0.0;
  Matrix llt = la::matmul(l.view(), l.view(), la::Trans::No, la::Trans::Yes);
  Matrix a = blr.dense();
  EXPECT_LT(la::rel_error(a.view(), llt.view()), 1e-8);
}

TEST(BlrCholesky, MaxRankCapHolds) {
  Problem p(1024, 128, "laplace2d");
  fmt::KernelAccessor acc(*p.km);
  auto blr = fmt::build_blr(acc, {.tile_size = 128, .max_rank = 40, .tol = 0.0});
  auto f = BLRCholesky::factorize(blr, {.max_rank = 40, .tol = 0.0});
  EXPECT_LE(f.max_rank_used(), 40);
}

TEST(BlrCholesky, RejectsIndefinite) {
  Rng rng(94);
  Matrix a = Matrix::random_spd(rng, 256);
  for (la::index_t i = 0; i < 256; ++i) a(i, i) -= 270.0;
  fmt::DenseAccessor acc(a.view());
  auto blr = fmt::build_blr(acc, {.tile_size = 64, .max_rank = 64, .tol = 1e-10});
  // The leading tiles still factor; the Schur updates of the first two
  // panels leave tile 2 indefinite, and the typed error names it.
  try {
    (void)BLRCholesky::factorize(blr, {});
    FAIL() << "expected TilePivotError";
  } catch (const TilePivotError& e) {
    EXPECT_EQ(e.tile(), 2);
  }
}

TEST(Complexity, HssUlvFlopsGrowLinearly) {
  // Empirical Table-1 check: HSS-ULV flops ~ O(N) at fixed leaf/rank.
  auto flops_for = [](la::index_t n) {
    Problem p(n, 128, "yukawa");
    fmt::KernelAccessor acc(*p.km);
    auto h = fmt::build_hss(
        acc, {.leaf_size = 128, .max_rank = 30, .tol = 0.0, .sample_cols = 256});
    hatrix::flops::reset();
    auto f = ulv::HSSULV::factorize(h);
    return static_cast<double>(hatrix::flops::total());
  };
  const double f1 = flops_for(1024);
  const double f4 = flops_for(4096);
  const double exponent = std::log(f4 / f1) / std::log(4.0);
  EXPECT_LT(exponent, 1.4);  // near-linear
  EXPECT_GT(exponent, 0.6);
}

TEST(Complexity, DenseCholeskyFlopsGrowCubically) {
  auto flops_for = [](la::index_t n) {
    Rng rng(95);
    Matrix a = Matrix::random_spd(rng, n);
    hatrix::flops::reset();
    (void)dag_cholesky(a, 64);
    return static_cast<double>(hatrix::flops::total());
  };
  const double f1 = flops_for(128);
  const double f2 = flops_for(256);
  const double exponent = std::log(f2 / f1) / std::log(2.0);
  EXPECT_GT(exponent, 2.6);
  EXPECT_LT(exponent, 3.4);
}

}  // namespace
}  // namespace hatrix::blrchol
