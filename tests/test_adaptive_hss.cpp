// Tests for the adaptive (guarded) HSS construction: the accuracy guard's
// interpolation probes, the typed under-resolution error, the construction
// task graph, and sequential/parallel equivalence.
// The full-scale N=8192 regression lives in test_hss_guard_regression.cpp
// (slow label).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "format/accessor.hpp"
#include "format/hss_builder.hpp"
#include "format/hss_builder_tasks.hpp"
#include "geometry/cluster_tree.hpp"
#include "kernels/kernel_matrix.hpp"
#include "kernels/kernels.hpp"
#include "linalg/blas.hpp"
#include "linalg/norms.hpp"
#include "lowrank/adaptive.hpp"
#include "runtime/thread_pool_executor.hpp"
#include "runtime/trace.hpp"

namespace hatrix {
namespace {

using la::index_t;
using la::Matrix;

TEST(InterpResidual, ExactInterpolationIsZero) {
  Rng rng(20);
  Matrix p = Matrix::random_normal(rng, 6, 9);
  // X = identity, sel = all rows: interpolation reproduces P exactly.
  Matrix x = Matrix::identity(6);
  std::vector<index_t> sel{0, 1, 2, 3, 4, 5};
  EXPECT_EQ(lr::interp_residual_maxcol(p.view(), x.view(), sel), 0.0);
  // Empty selection: nothing is explained, so the residual is P's largest
  // column 2-norm.
  double largest = 0.0;
  for (index_t j = 0; j < p.cols(); ++j) {
    double s = 0.0;
    for (index_t i = 0; i < p.rows(); ++i) s += p(i, j) * p(i, j);
    largest = std::max(largest, std::sqrt(s));
  }
  EXPECT_NEAR(lr::interp_residual_maxcol(p.view(), Matrix(6, 0).view(), {}),
              largest, 1e-14 * largest);
}

// Shared kernel-matrix fixture on a tree-ordered geometry.
struct Problem {
  std::unique_ptr<geom::ClusterTree> tree;
  std::unique_ptr<kernels::Kernel> kernel;
  std::unique_ptr<kernels::KernelMatrix> km;

  Problem(index_t n, index_t leaf, const std::string& kname,
          double nugget = 0.0, bool scattered = false, std::uint64_t seed = 11) {
    geom::Domain domain;
    if (scattered) {
      Rng rng(seed);
      domain = geom::random2d(n, rng);
    } else {
      domain = geom::grid2d(n);
    }
    tree = std::make_unique<geom::ClusterTree>(domain, leaf);
    kernel = kernels::make_kernel(kname);
    km = std::make_unique<kernels::KernelMatrix>(*kernel, tree->points(), nugget);
  }
};

TEST(GuardedBuild, SmoothKernelPassesWithoutGrowth) {
  Problem p(2048, 256, "yukawa");
  fmt::KernelAccessor acc(*p.km);
  rt::TaskGraph graph;
  fmt::HSSBuildDag dag = fmt::emit_hss_build_dag(
      acc,
      {.leaf_size = 256, .max_rank = 40, .sample_cols = 400, .guard_tol = 1e-4},
      graph);
  for (const auto& t : graph.tasks()) t.work();
  auto rep = fmt::build_report(dag);
  fmt::HSSMatrix h = fmt::extract_built_hss(dag);
  // The smooth kernel is well captured by the initial sample: the guard
  // should accept everywhere without (much) growth, and accuracy holds.
  EXPECT_LE(rep.total_growths, 2);
  EXPECT_LE(rep.worst_residual, 1e-4);
  Matrix a = p.km->dense();
  EXPECT_LT(la::rel_error(a.view(), h.dense().view()), 1e-4);
}

TEST(GuardedBuild, GrowthTriggersOnShortCorrelationMatern) {
  // Scattered sites + short correlation: the fixed sample misses near-range
  // interactions; the guard must detect it and grow the sample.
  Problem p(2048, 256, "matern", 1e-4, /*scattered=*/true);
  fmt::KernelAccessor acc(*p.km);
  rt::TaskGraph graph;
  fmt::HSSBuildDag dag = fmt::emit_hss_build_dag(
      acc,
      {.leaf_size = 256, .max_rank = 60, .sample_cols = 128, .guard_tol = 1e-4},
      graph);
  for (const auto& t : graph.tasks()) t.work();
  auto rep = fmt::build_report(dag);
  EXPECT_GT(rep.total_growths, 0);
  fmt::HSSMatrix h = fmt::extract_built_hss(dag);
  EXPECT_GT(rep.max_samples, 128);
  EXPECT_EQ(h.size(), 2048);
}

TEST(GuardedBuild, TypedErrorWhenCapReached) {
  Problem p(2048, 256, "matern", 1e-4, /*scattered=*/true);
  fmt::KernelAccessor acc(*p.km);
  try {
    fmt::HSSMatrix h = fmt::build_hss(
        acc, {.leaf_size = 256, .max_rank = 60, .sample_cols = 64,
              .guard_tol = 1e-8, .max_sample_cols = 128});
    FAIL() << "expected BasisUnderResolvedError";
  } catch (const fmt::BasisUnderResolvedError& e) {
    EXPECT_GE(e.sample_cols(), 64);
    EXPECT_GT(e.residual(), e.tol());
    EXPECT_DOUBLE_EQ(e.tol(), 1e-8);
    EXPECT_NE(std::string(e.what()).find("under-resolved"), std::string::npos);
  }
}

TEST(GuardedBuild, TypedErrorPropagatesThroughExecutor) {
  Problem p(2048, 256, "matern", 1e-4, /*scattered=*/true);
  fmt::KernelAccessor acc(*p.km);
  EXPECT_THROW(
      fmt::build_hss(acc,
                     {.leaf_size = 256, .max_rank = 60, .sample_cols = 64,
                      .guard_tol = 1e-8, .max_sample_cols = 128},
                     4),
      fmt::BasisUnderResolvedError);
}

TEST(GuardedBuild, RankEscapeLiftsRankPastCapWhenFloorBinds) {
  // max_rank far below what the matern blocks need: the probe residual pins
  // at the rank-truncation floor no matter how many columns are sampled.
  // The guard raises the offending nodes' rank caps and the build succeeds
  // instead of running the sample to its cap and throwing.
  Problem p(2048, 256, "matern", 1e-4, /*scattered=*/true);
  fmt::KernelAccessor acc(*p.km);
  const fmt::HSSOptions opts{.leaf_size = 256, .max_rank = 20,
                             .sample_cols = 256, .guard_tol = 1e-4,
                             .max_sample_cols = 1024};

  rt::TaskGraph graph;
  fmt::HSSBuildDag dag = fmt::emit_hss_build_dag(acc, opts, graph);
  for (const auto& t : graph.tasks()) t.work();
  auto rep = fmt::build_report(dag);
  fmt::HSSMatrix h = fmt::extract_built_hss(dag);

  EXPECT_GT(rep.rank_escapes, 0);
  EXPECT_GT(h.max_rank_used(), opts.max_rank);
  // The escaped build must actually deliver guard-level accuracy.
  Matrix a = p.km->dense();
  EXPECT_LT(la::rel_error(a.view(), h.dense().view()), 1e-3);
}

TEST(BuildDag, StructureMatchesTree) {
  Problem p(1024, 128, "yukawa");
  fmt::KernelAccessor acc(*p.km);
  rt::TaskGraph graph;
  fmt::HSSBuildDag dag = fmt::emit_hss_build_dag(
      acc, {.leaf_size = 128, .max_rank = 20}, graph);
  // L = 3: 8 leaf COMPRESS, 6 internal TRANSFER (levels 1-2), 7 MERGE_SAMPLE
  // couplings (levels 1-3).
  EXPECT_EQ(graph.num_tasks(), 8 + 6 + 7);
  // Longest chain: COMPRESS -> TRANSFER(2) -> TRANSFER(1) -> MERGE_SAMPLE(1).
  EXPECT_EQ(graph.critical_path_length(), 4);
  ASSERT_TRUE(dag.state != nullptr);
}

TEST(BuildDag, ParallelExecutionMatchesSequentialExactly) {
  Problem p(1024, 128, "matern", 1e-4, /*scattered=*/true);
  fmt::KernelAccessor acc(*p.km);
  const fmt::HSSOptions opts{.leaf_size = 128, .max_rank = 30,
                             .sample_cols = 200, .guard_tol = 1e-4};
  fmt::HSSMatrix seq = fmt::build_hss(acc, opts);
  fmt::HSSMatrix par = fmt::build_hss(acc, opts, 4);
  // Per-node deterministic sampling streams: the parallel build must be the
  // same matrix, independent of scheduling.
  EXPECT_EQ(seq.max_rank_used(), par.max_rank_used());
  EXPECT_LT(la::rel_error(seq.dense().view(), par.dense().view()), 1e-15);
}

TEST(BuildDag, TraceIsConsistentAcrossWorkers) {
  Problem p(1024, 128, "yukawa");
  fmt::KernelAccessor acc(*p.km);
  rt::TaskGraph graph;
  fmt::HSSBuildDag dag = fmt::emit_hss_build_dag(
      acc, {.leaf_size = 128, .max_rank = 20, .sample_cols = 200}, graph);
  rt::ThreadPoolExecutor ex(4);
  auto stats = ex.run(graph);
  EXPECT_EQ(rt::validate_trace(graph, stats), "");
  fmt::HSSMatrix h = fmt::extract_built_hss(dag);
  EXPECT_EQ(h.size(), 1024);
}

}  // namespace
}  // namespace hatrix
