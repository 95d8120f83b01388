// Tests for the task-decomposed factorizations: the HSS-ULV DAG (Fig. 8)
// and the tile-Cholesky DAGs (Fig. 6 / LORAPO),
// executed through both the asynchronous and fork-join executors, against
// the sequential entry points (the same DAGs on one worker).
#include <gtest/gtest.h>

#include <cmath>

#include "blrchol/blr_cholesky_tasks.hpp"
#include "format/accessor.hpp"
#include "format/hss_builder.hpp"
#include "geometry/cluster_tree.hpp"
#include "kernels/kernel_matrix.hpp"
#include "kernels/kernels.hpp"
#include "linalg/blas.hpp"
#include "linalg/norms.hpp"
#include "runtime/thread_pool_executor.hpp"
#include "ulv/hss_ulv_tasks.hpp"

namespace hatrix {
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

double vec_rel_err(const std::vector<double>& a, const std::vector<double>& b) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num += (a[i] - b[i]) * (a[i] - b[i]);
    den += a[i] * a[i];
  }
  return std::sqrt(num / den);
}

class HssUlvDagExec : public ::testing::TestWithParam<int> {};

TEST_P(HssUlvDagExec, MatchesSequentialFactorization) {
  const int workers = GetParam();
  Problem p(1024, 128, "yukawa");
  fmt::KernelAccessor acc(*p.km);
  auto h = fmt::build_hss(acc, {.leaf_size = 128, .max_rank = 40, .tol = 0.0});

  rt::TaskGraph graph;
  auto dag = ulv::emit_hss_ulv_dag(h, graph, /*with_work=*/true);
  rt::ThreadPoolExecutor ex(workers);
  auto stats = ex.run(graph);
  EXPECT_EQ(rt::validate_trace(graph, stats), "");
  auto f_tasks = ulv::extract_factorization(dag);

  auto f_seq = ulv::HSSULV::factorize(h);
  Rng rng(101);
  std::vector<double> b = rng.normal_vector(1024);
  auto x1 = f_tasks.solve(b);
  auto x2 = f_seq.solve(b);
  EXPECT_LT(vec_rel_err(x2, x1), 1e-13);
}

INSTANTIATE_TEST_SUITE_P(Workers, HssUlvDagExec, ::testing::Values(1, 2, 4));

TEST(HssUlvDag, ForkJoinExecutorSameResult) {
  Problem p(512, 64, "matern");
  fmt::KernelAccessor acc(*p.km);
  auto h = fmt::build_hss(acc, {.leaf_size = 64, .max_rank = 25, .tol = 0.0});

  rt::TaskGraph graph;
  auto dag = ulv::emit_hss_ulv_dag(h, graph, true);
  rt::ThreadPoolExecutor ex(2, rt::Schedule::Phased);
  auto stats = ex.run(graph);
  EXPECT_EQ(rt::validate_trace(graph, stats), "");
  auto f_tasks = ulv::extract_factorization(dag);

  auto f_seq = ulv::HSSULV::factorize(h);
  Rng rng(102);
  std::vector<double> b = rng.normal_vector(512);
  EXPECT_LT(vec_rel_err(f_seq.solve(b), f_tasks.solve(b)), 1e-13);
}

TEST(HssUlvDag, TaskCountIsLinearInNodes) {
  Problem p(2048, 128, "yukawa");
  fmt::KernelAccessor acc(*p.km);
  auto h = fmt::build_hss(
      acc, {.leaf_size = 128, .max_rank = 20, .tol = 0.0, .sample_cols = 200});
  rt::TaskGraph graph;
  (void)ulv::emit_hss_ulv_dag(h, graph, false);
  // 2 tasks per node at levels L..1 + 1 merge per pair + root.
  std::int64_t expect = 0;
  for (int l = h.max_level(); l >= 1; --l)
    expect += 2 * h.num_nodes(l) + h.num_pairs(l);
  expect += 1;
  EXPECT_EQ(graph.num_tasks(), expect);
}

TEST(HssUlvDag, CriticalPathGrowsWithLevelsNotNodes) {
  // The HSS-ULV critical path is O(levels): diag->factor->merge per level.
  Problem p1(1024, 128, "yukawa");
  Problem p2(4096, 128, "yukawa");
  fmt::KernelAccessor a1(*p1.km), a2(*p2.km);
  fmt::HSSOptions opts{.leaf_size = 128, .max_rank = 15, .tol = 0.0,
                       .sample_cols = 150};
  auto h1 = fmt::build_hss(a1, opts);
  auto h2 = fmt::build_hss(a2, opts);
  rt::TaskGraph g1, g2;
  (void)ulv::emit_hss_ulv_dag(h1, g1, false);
  (void)ulv::emit_hss_ulv_dag(h2, g2, false);
  // 4x the nodes, only +2 levels: critical path grows by exactly 3 per level.
  EXPECT_EQ(g2.critical_path_length() - g1.critical_path_length(),
            3 * (h2.max_level() - h1.max_level()));
}

class DenseCholDagExec : public ::testing::TestWithParam<int> {};

TEST_P(DenseCholDagExec, MatchesTileCholesky) {
  const int workers = GetParam();
  Rng rng(103);
  Matrix a = Matrix::random_spd(rng, 160);
  rt::TaskGraph graph;
  auto dag = blrchol::emit_dense_cholesky_dag(a.view(), 160, 48, graph, true);
  rt::ThreadPoolExecutor ex(workers);
  auto stats = ex.run(graph);
  EXPECT_EQ(rt::validate_trace(graph, stats), "");

  Matrix ref = Matrix::from_view(a.view());
  la::ref::potrf(ref.view());
  // The DAG path leaves the strict upper triangle untouched; compare lower.
  for (index_t j = 0; j < 160; ++j)
    for (index_t i = j; i < 160; ++i)
      EXPECT_NEAR((*dag.state)(i, j), ref(i, j), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Workers, DenseCholDagExec, ::testing::Values(1, 3));

TEST(DenseCholDag, TaskAndEdgeCounts) {
  rt::TaskGraph graph;
  (void)blrchol::emit_dense_cholesky_dag({}, 4 * 32, 32, graph, false);
  // p=4 tiles: POTRF p + TRSM p(p-1)/2 + SYRK p(p-1)/2 + GEMM p(p-1)(p-2)/6.
  EXPECT_EQ(graph.num_tasks(), 4 + 6 + 6 + 4);
  EXPECT_GT(graph.num_edges(), 0);
}

class BlrCholDagExec : public ::testing::TestWithParam<int> {};

TEST_P(BlrCholDagExec, MatchesSequentialBlrCholesky) {
  const int workers = GetParam();
  Problem p(1024, 256, "yukawa");
  fmt::KernelAccessor acc(*p.km);
  auto blr = fmt::build_blr(acc, {.tile_size = 256, .max_rank = 256, .tol = 1e-9});

  rt::TaskGraph graph;
  blrchol::BLRCholOptions opts{.max_rank = 256, .tol = 1e-12};
  auto dag = blrchol::emit_blr_cholesky_dag(blr, graph, true, opts);
  rt::ThreadPoolExecutor ex(workers);
  auto stats = ex.run(graph);
  EXPECT_EQ(rt::validate_trace(graph, stats), "");

  auto f_seq = blrchol::BLRCholesky::factorize(blr, opts);
  // Compare factors via a solve.
  Rng rng(104);
  std::vector<double> b = rng.normal_vector(1024);
  std::vector<double> ab;
  blr.matvec(b, ab);
  blrchol::BLRCholesky from_dag = blrchol::BLRCholesky::adopt(std::move(*dag.state));
  auto x1 = from_dag.solve(ab);
  auto x2 = f_seq.solve(ab);
  EXPECT_LT(vec_rel_err(x2, x1), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Workers, BlrCholDagExec, ::testing::Values(1, 4));

TEST(BlrCholDag, DeepTrailingUpdateDependencies) {
  // LORAPO's weakness: the GEMM update chain makes the critical path grow
  // with the tile count (contrast with HssUlvDag.CriticalPathGrows...).
  Problem p(2048, 128, "yukawa");
  fmt::KernelAccessor acc(*p.km);
  auto blr = fmt::build_blr(acc, {.tile_size = 128, .max_rank = 64, .tol = 1e-6});
  rt::TaskGraph graph;
  (void)blrchol::emit_blr_cholesky_dag(blr, graph, false);
  // p = 16 tiles: critical path >= 3 p - 2 (POTRF->TRSM->SYRK/GEMM per step).
  EXPECT_GE(graph.critical_path_length(), 3 * 16 - 2);
}

}  // namespace
}  // namespace hatrix
