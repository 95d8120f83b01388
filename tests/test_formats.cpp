// Tests for the matrix formats: HSS (nested bases) and
// BLR (flat tiles) — construction accuracy, matvec consistency, structure
// invariants, and the sampled (matrix-free) construction path.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "format/accessor.hpp"
#include "format/blr.hpp"
#include "format/hss.hpp"
#include "format/hss_builder.hpp"
#include "geometry/cluster_tree.hpp"
#include "kernels/kernel_matrix.hpp"
#include "kernels/kernels.hpp"
#include "linalg/blas.hpp"
#include "linalg/norms.hpp"

namespace hatrix::fmt {
namespace {

// Kernel matrix on a tree-ordered 2D grid: the evaluation setting.
struct Problem {
  geom::Domain domain;
  std::unique_ptr<geom::ClusterTree> tree;
  std::unique_ptr<kernels::Kernel> kernel;
  std::unique_ptr<kernels::KernelMatrix> km;

  Problem(index_t n, index_t leaf, const std::string& kname = "yukawa") {
    domain = geom::grid2d(n);
    tree = std::make_unique<geom::ClusterTree>(domain, leaf);
    kernel = kernels::make_kernel(kname);
    km = std::make_unique<kernels::KernelMatrix>(*kernel, tree->points());
  }
};

TEST(HssBuilder, LevelsMatchClusterTree) {
  EXPECT_EQ(hss_levels(1024, 256), 2);
  EXPECT_EQ(hss_levels(1024, 1024), 0);
  EXPECT_EQ(hss_levels(1000, 100), 4);  // ceil(1000/16)=63 > 100? no: check below
}

TEST(HssBuilder, LevelsAgreeWithClusterTreeDepth) {
  for (index_t n : {64, 100, 1000, 4096}) {
    for (index_t leaf : {16, 50, 256}) {
      geom::Domain d = geom::grid2d(n);
      geom::ClusterTree tree(d, leaf);
      EXPECT_EQ(hss_levels(n, leaf), tree.max_level()) << "n=" << n << " leaf=" << leaf;
    }
  }
}

TEST(Hss, StructureIntervalsMatchTree) {
  Problem p(512, 64);
  KernelAccessor acc(*p.km);
  HSSMatrix h = build_hss(acc, {.leaf_size = 64, .max_rank = 30, .tol = 0.0});
  ASSERT_EQ(h.max_level(), p.tree->max_level());
  for (int l = 0; l <= h.max_level(); ++l)
    for (index_t i = 0; i < h.num_nodes(l); ++i) {
      EXPECT_EQ(h.node(l, i).begin, p.tree->node(l, i).begin);
      EXPECT_EQ(h.node(l, i).end, p.tree->node(l, i).end);
    }
}

TEST(Hss, BasesAreOrthonormal) {
  Problem p(512, 64);
  KernelAccessor acc(*p.km);
  HSSMatrix h = build_hss(acc, {.leaf_size = 64, .max_rank = 20, .tol = 0.0});
  for (int l = h.max_level(); l >= 1; --l)
    for (index_t i = 0; i < h.num_nodes(l); ++i) {
      const auto& nd = h.node(l, i);
      if (nd.rank == 0) continue;
      Matrix id = la::matmul(nd.basis.view(), nd.basis.view(), la::Trans::Yes,
                             la::Trans::No);
      EXPECT_LT(la::rel_error(Matrix::identity(nd.rank).view(), id.view()), 1e-12)
          << "level " << l << " node " << i;
    }
}

TEST(Hss, NestedFullBasisIsOrthonormal) {
  Problem p(512, 64);
  KernelAccessor acc(*p.km);
  HSSMatrix h = build_hss(acc, {.leaf_size = 64, .max_rank = 20, .tol = 0.0});
  for (int l = 1; l <= h.max_level(); ++l)
    for (index_t i = 0; i < h.num_nodes(l); ++i) {
      Matrix u = h.full_basis(l, i);
      if (u.cols() == 0) continue;
      Matrix id = la::matmul(u.view(), u.view(), la::Trans::Yes, la::Trans::No);
      EXPECT_LT(la::rel_error(Matrix::identity(u.cols()).view(), id.view()), 1e-11);
    }
}

class HssAccuracy : public ::testing::TestWithParam<const char*> {};

TEST_P(HssAccuracy, DenseReconstructionError) {
  Problem p(1024, 128, GetParam());
  KernelAccessor acc(*p.km);
  HSSMatrix h = build_hss(acc, {.leaf_size = 128, .max_rank = 60, .tol = 0.0});
  Matrix a = p.km->dense();
  Matrix rec = h.dense();
  // Weak-admissibility compression of smooth kernels at generous rank: the
  // construction error should be small (Table 2 regime).
  EXPECT_LT(la::rel_error(a.view(), rec.view()), 1e-4) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(PaperKernels, HssAccuracy,
                         ::testing::Values("laplace2d", "yukawa", "matern"));

TEST(Hss, RankIncreaseImprovesAccuracy) {
  Problem p(1024, 128);
  KernelAccessor acc(*p.km);
  Matrix a = p.km->dense();
  double prev = 1e9;
  for (index_t rank : {10, 30, 60}) {
    HSSMatrix h = build_hss(acc, {.leaf_size = 128, .max_rank = rank, .tol = 0.0});
    double err = la::rel_error(a.view(), h.dense().view());
    EXPECT_LT(err, prev * 1.5);  // monotone modulo noise
    prev = err;
  }
  EXPECT_LT(prev, 1e-5);
}

TEST(Hss, MatvecMatchesDenseReconstruction) {
  Problem p(777, 100, "matern");  // non power of two
  KernelAccessor acc(*p.km);
  HSSMatrix h = build_hss(acc, {.leaf_size = 100, .max_rank = 25, .tol = 0.0});
  Rng rng(61);
  std::vector<double> x = rng.normal_vector(777);
  std::vector<double> y;
  h.matvec(x, y);
  Matrix rec = h.dense();
  std::vector<double> y_ref(777, 0.0);
  la::gemv(1.0, rec.view(), la::Trans::No, x.data(), 0.0, y_ref.data());
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < 777; ++i) {
    num += (y[i] - y_ref[i]) * (y[i] - y_ref[i]);
    den += y_ref[i] * y_ref[i];
  }
  EXPECT_LT(std::sqrt(num / den), 1e-12);
}

TEST(Hss, SampledConstructionCloseToExact) {
  Problem p(2048, 256);
  KernelAccessor acc(*p.km);
  HSSMatrix exact = build_hss(acc, {.leaf_size = 256, .max_rank = 40, .tol = 0.0});
  HSSMatrix sampled = build_hss(
      acc, {.leaf_size = 256, .max_rank = 40, .tol = 0.0, .sample_cols = 400});
  Matrix a = p.km->dense();
  const double e_exact = la::rel_error(a.view(), exact.dense().view());
  const double e_sampled = la::rel_error(a.view(), sampled.dense().view());
  EXPECT_LT(e_sampled, std::max(50.0 * e_exact, 1e-6));
}

TEST(Hss, SingleLevelDegeneratesToDense) {
  Problem p(100, 128);
  KernelAccessor acc(*p.km);
  HSSMatrix h = build_hss(acc, {.leaf_size = 128, .max_rank = 10, .tol = 0.0});
  EXPECT_EQ(h.max_level(), 0);
  Matrix a = p.km->dense();
  EXPECT_LT(la::rel_error(a.view(), h.dense().view()), 1e-15);
}

TEST(Hss, DenseAccessorAgreesWithKernelAccessor) {
  Problem p(512, 64);
  Matrix a = p.km->dense();
  DenseAccessor dacc(a.view());
  KernelAccessor kacc(*p.km);
  HSSOptions opts{.leaf_size = 64, .max_rank = 25, .tol = 0.0};
  HSSMatrix h1 = build_hss(dacc, opts);
  HSSMatrix h2 = build_hss(kacc, opts);
  EXPECT_LT(la::rel_error(h1.dense().view(), h2.dense().view()), 1e-12);
}

TEST(Accessor, KernelGatherRejectsOutOfRangeIndices) {
  Problem p(64, 16);
  KernelAccessor acc(*p.km);
  EXPECT_EQ(acc.gather({0, 63}, {5}).rows(), 2);
  EXPECT_THROW((void)acc.gather({0, 64}, {5}), Error);
  EXPECT_THROW((void)acc.gather({0}, {-1}), Error);
}

TEST(Accessor, DenseGatherRejectsOutOfRangeIndices) {
  Problem p(64, 16);
  Matrix a = p.km->dense();
  DenseAccessor acc(a.view());
  EXPECT_EQ(acc.gather({0, 63}, {5}).rows(), 2);
  EXPECT_THROW((void)acc.gather({0, 64}, {5}), Error);
  EXPECT_THROW((void)acc.gather({0}, {-1}), Error);
}

TEST(Hss, ToleranceDrivenRanksAdapt) {
  Problem p(1024, 128, "matern");
  KernelAccessor acc(*p.km);
  HSSMatrix tight = build_hss(acc, {.leaf_size = 128, .max_rank = 128, .tol = 1e-10});
  HSSMatrix loose = build_hss(acc, {.leaf_size = 128, .max_rank = 128, .tol = 1e-3});
  EXPECT_GT(tight.max_rank_used(), loose.max_rank_used());
}

TEST(Hss, MemoryBytesIsLinearish) {
  // O(N) storage: doubling N should far less than quadruple memory.
  Problem p1(1024, 128);
  Problem p2(2048, 128);
  KernelAccessor a1(*p1.km), a2(*p2.km);
  HSSOptions opts{.leaf_size = 128, .max_rank = 30, .tol = 0.0, .sample_cols = 300};
  auto h1 = build_hss(a1, opts);
  auto h2 = build_hss(a2, opts);
  EXPECT_LT(static_cast<double>(h2.memory_bytes()),
            2.8 * static_cast<double>(h1.memory_bytes()));
}

TEST(Blr, AdaptiveRankReconstruction) {
  Problem p(1024, 256);
  KernelAccessor acc(*p.km);
  BLRMatrix m = build_blr(acc, {.tile_size = 256, .max_rank = 256, .tol = 1e-8});
  Matrix a = p.km->dense();
  EXPECT_LT(la::rel_error(a.view(), m.dense().view()), 1e-6);
  EXPECT_GT(m.max_rank_used(), 0);
  EXPECT_LT(m.max_rank_used(), 256);  // adaptivity found low rank
}

TEST(Blr, MatvecMatchesDense) {
  Problem p(512, 128, "matern");
  KernelAccessor acc(*p.km);
  BLRMatrix m = build_blr(acc, {.tile_size = 128, .max_rank = 128, .tol = 1e-10});
  Rng rng(63);
  std::vector<double> x = rng.normal_vector(512);
  std::vector<double> y;
  m.matvec(x, y);
  Matrix rec = m.dense();
  std::vector<double> y_ref(512, 0.0);
  la::gemv(1.0, rec.view(), la::Trans::No, x.data(), 0.0, y_ref.data());
  for (std::size_t i = 0; i < 512; ++i) EXPECT_NEAR(y[i], y_ref[i], 1e-8);
}

TEST(Blr, MemoryBelowDense) {
  Problem p(1024, 256);
  KernelAccessor acc(*p.km);
  BLRMatrix m = build_blr(acc, {.tile_size = 256, .max_rank = 256, .tol = 1e-6});
  EXPECT_LT(m.memory_bytes(), 1024 * 1024 * 8);
}

TEST(Accessor, DenseGatherMatchesEntries) {
  Rng rng(64);
  Matrix a = Matrix::random_normal(rng, 10, 10);
  DenseAccessor acc(a.view());
  Matrix g = acc.gather({1, 5, 7}, {0, 9});
  EXPECT_EQ(g(0, 0), a(1, 0));
  EXPECT_EQ(g(2, 1), a(7, 9));
}

}  // namespace
}  // namespace hatrix::fmt
