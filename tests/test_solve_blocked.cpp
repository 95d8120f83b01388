// The blocked multi-RHS solve paths (HSS-ULV and the panel solve
// DAG) against the per-column oracle: the blocked code applies the same
// per-column operation sequence through gemm/trsm panels, so every column
// must be BIT-identical to a single-RHS solve — not merely close.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "format/accessor.hpp"
#include "format/hss_builder.hpp"
#include "geometry/cluster_tree.hpp"
#include "kernels/kernel_matrix.hpp"
#include "kernels/kernels.hpp"
#include "ulv/hss_solve_tasks.hpp"
#include "ulv/hss_ulv.hpp"

namespace hatrix::ulv {
namespace {

using la::index_t;
using la::Matrix;

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

/// Exact equality, entry for entry — blocked vs oracle is a pure blocking
/// change, so even the last bit must match.
void expect_bit_identical(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t i = 0; i < a.rows(); ++i)
      ASSERT_EQ(a(i, j), b(i, j)) << "mismatch at (" << i << "," << j << ")";
}

TEST(BlockedSolve, HssPanelMatchesColumnwiseOracleBitwise) {
  Problem p(1024, 128);
  fmt::KernelAccessor acc(*p.km);
  auto h = fmt::build_hss(acc, {.leaf_size = 128, .max_rank = 40, .tol = 0.0});
  auto f = HSSULV::factorize(h);
  Rng rng(91);
  for (index_t nrhs : {1, 5, 17, 64}) {
    Matrix b = Matrix::random_normal(rng, 1024, nrhs);
    expect_bit_identical(f.solve(b), f.solve_columnwise(b));
  }
}

TEST(BlockedSolve, HssPanelColumnsMatchVectorSolves) {
  Problem p(512, 64);
  fmt::KernelAccessor acc(*p.km);
  auto h = fmt::build_hss(acc, {.leaf_size = 64, .max_rank = 25, .tol = 0.0});
  auto f = HSSULV::factorize(h);
  Rng rng(92);
  Matrix b = Matrix::random_normal(rng, 512, 7);
  Matrix x = f.solve(b);
  for (index_t j = 0; j < 7; ++j) {
    std::vector<double> bj(512);
    for (index_t i = 0; i < 512; ++i) bj[static_cast<std::size_t>(i)] = b(i, j);
    std::vector<double> xj = f.solve(bj);
    for (index_t i = 0; i < 512; ++i)
      ASSERT_EQ(x(i, j), xj[static_cast<std::size_t>(i)]) << "col " << j;
  }
}

TEST(BlockedSolve, HssSingleLevelRootOnly) {
  // leaf >= n: L = 0, the blocked path reduces to one panel potrs.
  Problem p(64, 64);
  fmt::KernelAccessor acc(*p.km);
  auto h = fmt::build_hss(acc, {.leaf_size = 64, .max_rank = 64, .tol = 0.0});
  auto f = HSSULV::factorize(h);
  Rng rng(93);
  Matrix b = Matrix::random_normal(rng, 64, 9);
  expect_bit_identical(f.solve(b), f.solve_columnwise(b));
}

TEST(BlockedSolve, EmptyPanel) {
  Problem p(256, 64);
  fmt::KernelAccessor acc(*p.km);
  auto h = fmt::build_hss(acc, {.leaf_size = 64, .max_rank = 20, .tol = 0.0});
  auto f = HSSULV::factorize(h);
  Matrix x = f.solve(Matrix(256, 0));
  EXPECT_EQ(x.rows(), 256);
  EXPECT_EQ(x.cols(), 0);
}

class SolveDagPanel : public ::testing::TestWithParam<index_t> {};

// The solve DAG run in insertion order calls the same step functions as
// f.solve, so every panel width (including an empty one) gives the same bits.
TEST_P(SolveDagPanel, InsertionOrderMatchesBlockedSolve) {
  const index_t nrhs = GetParam();
  Problem p(1024, 128);
  fmt::KernelAccessor acc(*p.km);
  auto h = fmt::build_hss(acc, {.leaf_size = 128, .max_rank = 30, .tol = 0.0});
  auto f = HSSULV::factorize(h);
  Rng rng(95);
  Matrix b = Matrix::random_normal(rng, 1024, nrhs);

  rt::TaskGraph graph;
  Matrix x(1024, nrhs);
  emit_hss_solve_dag(f, b.view(), x.view(), graph);
  for (const auto& t : graph.tasks())
    if (t.work) t.work();
  expect_bit_identical(x, f.solve(b));

  // The vector solve is the one-column panel of the same steps.
  if (nrhs == 1) {
    std::vector<double> b0(1024);
    for (index_t i = 0; i < 1024; ++i) b0[static_cast<std::size_t>(i)] = b(i, 0);
    const std::vector<double> x0 = f.solve(b0);
    for (index_t i = 0; i < 1024; ++i)
      ASSERT_EQ(x0[static_cast<std::size_t>(i)], x(i, 0));
  }
}

INSTANTIATE_TEST_SUITE_P(Nrhs, SolveDagPanel, ::testing::Values(0, 1, 7, 64));

}  // namespace
}  // namespace hatrix::ulv
