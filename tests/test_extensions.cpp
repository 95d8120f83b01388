// Tests for the extension features: multi-RHS and refined solves, the
// synthetic random SPD HSS generator, the task-based solve DAG (Eq. 17),
// PTG-style local task generation, and the trace exports.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "distsim/des.hpp"
#include "format/accessor.hpp"
#include "format/hss_builder.hpp"
#include "geometry/cluster_tree.hpp"
#include "hatrix/drivers.hpp"
#include "kernels/kernel_matrix.hpp"
#include "kernels/kernels.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/norms.hpp"
#include "runtime/thread_pool_executor.hpp"
#include "ulv/hss_solve_tasks.hpp"
#include "ulv/hss_ulv.hpp"

namespace hatrix {
namespace {

using la::index_t;
using la::Matrix;

double vec_rel_err(const std::vector<double>& a, const std::vector<double>& b) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num += (a[i] - b[i]) * (a[i] - b[i]);
    den += a[i] * a[i];
  }
  return std::sqrt(num / den);
}

class RandomSpdHss : public ::testing::TestWithParam<std::pair<index_t, index_t>> {};

TEST_P(RandomSpdHss, RepresentedOperatorIsSpd) {
  auto [n, leaf] = GetParam();
  Rng rng(201);
  auto h = fmt::make_random_spd_hss(n, leaf, 12, rng);
  Matrix dense = h.dense();
  EXPECT_NO_THROW(la::potrf(dense.view()));
}

INSTANTIATE_TEST_SUITE_P(Shapes, RandomSpdHss,
                         ::testing::Values(std::pair<index_t, index_t>{128, 32},
                                           std::pair<index_t, index_t>{200, 25},
                                           std::pair<index_t, index_t>{512, 64}));

TEST(RandomSpdHss, UlvSolvesItExactly) {
  // ULV correctness independent of any kernel/builder: a random SPD HSS
  // operator must be solved to roundoff.
  Rng rng(202);
  auto h = fmt::make_random_spd_hss(640, 80, 16, rng);
  auto f = ulv::HSSULV::factorize(h);
  std::vector<double> b = rng.normal_vector(640);
  std::vector<double> ab;
  h.matvec(b, ab);
  auto x = f.solve(ab);
  EXPECT_LT(vec_rel_err(b, x), 1e-11);
}

TEST(RandomSpdHss, MatvecMatchesDense) {
  Rng rng(203);
  auto h = fmt::make_random_spd_hss(300, 40, 10, rng);
  Matrix dense = h.dense();
  std::vector<double> x = rng.normal_vector(300);
  std::vector<double> y;
  h.matvec(x, y);
  std::vector<double> y_ref(300, 0.0);
  la::gemv(1.0, dense.view(), la::Trans::No, x.data(), 0.0, y_ref.data());
  EXPECT_LT(vec_rel_err(y_ref, y), 1e-12);
}

TEST(MultiRhs, BlockSolveMatchesColumnwise) {
  Rng rng(204);
  auto h = fmt::make_random_spd_hss(256, 32, 8, rng);
  auto f = ulv::HSSULV::factorize(h);
  Matrix b = Matrix::random_normal(rng, 256, 5);
  Matrix x = f.solve(b);
  for (index_t j = 0; j < 5; ++j) {
    std::vector<double> col(256);
    for (index_t i = 0; i < 256; ++i) col[static_cast<std::size_t>(i)] = b(i, j);
    auto xj = f.solve(col);
    for (index_t i = 0; i < 256; ++i)
      EXPECT_EQ(x(i, j), xj[static_cast<std::size_t>(i)]);
  }
}

TEST(Refinement, ImprovesOrMatchesDirectSolve) {
  // On the compressed operator the direct solve is already near-roundoff;
  // refinement must not make it worse, and usually gains a digit.
  Rng rng(205);
  auto h = fmt::make_random_spd_hss(512, 64, 12, rng);
  auto f = ulv::HSSULV::factorize(h);
  std::vector<double> b = rng.normal_vector(512);
  std::vector<double> ab;
  h.matvec(b, ab);
  auto x0 = f.solve(ab);
  auto x1 = f.solve_refined(ab, 2);
  const double e0 = vec_rel_err(b, x0);
  const double e1 = vec_rel_err(b, x1);
  EXPECT_LE(e1, e0 * 2.0 + 1e-15);
  EXPECT_LT(e1, 1e-12);
}

/// Run the one-column solve DAG of `b` on `ex`. The executors only reorder
/// calls of the step functions f.solve makes, so the bits must not move.
std::vector<double> solve_on(const ulv::HSSULV& f, const std::vector<double>& b,
                             rt::ThreadPoolExecutor& ex, rt::TaskGraph& graph) {
  const auto n = static_cast<index_t>(b.size());
  std::vector<double> x(b.size());
  ulv::emit_hss_solve_dag(f, {b.data(), n, 1, n}, {x.data(), n, 1, n}, graph);
  auto stats = ex.run(graph);
  EXPECT_EQ(rt::validate_trace(graph, stats), "");
  return x;
}

class SolveDagWorkers
    : public ::testing::TestWithParam<std::tuple<int, rt::Schedule>> {};

TEST_P(SolveDagWorkers, MatchesSequentialSolve) {
  const auto [workers, schedule] = GetParam();
  Rng rng(206);
  auto h = fmt::make_random_spd_hss(768, 96, 14, rng);
  auto f = ulv::HSSULV::factorize(h);
  std::vector<double> b = rng.normal_vector(768);
  rt::TaskGraph graph;
  rt::ThreadPoolExecutor ex(workers, schedule);
  EXPECT_EQ(solve_on(f, b, ex, graph), f.solve(b));
}

// The edge shapes on every executor: a tree that is a single leaf (L = 0)
// and a panel with no columns.
TEST_P(SolveDagWorkers, SingleLeafAndEmptyPanel) {
  const auto [workers, schedule] = GetParam();
  Rng rng(210);
  auto h0 = fmt::make_random_spd_hss(48, 64, 8, rng);
  ASSERT_EQ(h0.max_level(), 0);
  auto f0 = ulv::HSSULV::factorize(h0);
  std::vector<double> b = rng.normal_vector(48);
  rt::TaskGraph graph0;
  rt::ThreadPoolExecutor ex(workers, schedule);
  EXPECT_EQ(solve_on(f0, b, ex, graph0), f0.solve(b));

  auto h = fmt::make_random_spd_hss(512, 64, 10, rng);
  auto f = ulv::HSSULV::factorize(h);
  Matrix empty(512, 0), x(512, 0);
  rt::TaskGraph graph;
  ulv::emit_hss_solve_dag(f, empty.view(), x.view(), graph);
  EXPECT_EQ(rt::validate_trace(graph, ex.run(graph)), "");
  EXPECT_EQ(f.solve(empty).cols(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Workers, SolveDagWorkers,
    ::testing::Combine(::testing::Values(1, 4),
                       ::testing::Values(rt::Schedule::Fifo,
                                         rt::Schedule::CriticalPath,
                                         rt::Schedule::Phased)));

TEST(SolveDag, ForkJoinExecutorWorksToo) {
  Rng rng(207);
  auto h = fmt::make_random_spd_hss(512, 64, 10, rng);
  auto f = ulv::HSSULV::factorize(h);
  std::vector<double> b = rng.normal_vector(512);
  rt::TaskGraph graph;
  rt::ThreadPoolExecutor ex(2, rt::Schedule::Phased);
  EXPECT_EQ(solve_on(f, b, ex, graph), f.solve(b));
}

TEST(SolveDag, DegenerateSingleLevel) {
  Rng rng(208);
  auto h = fmt::make_random_spd_hss(48, 64, 8, rng);  // leaf covers all: L = 0
  ASSERT_EQ(h.max_level(), 0);
  auto f = ulv::HSSULV::factorize(h);
  std::vector<double> b = rng.normal_vector(48);
  rt::TaskGraph graph;
  rt::ThreadPoolExecutor ex(1);
  EXPECT_EQ(solve_on(f, b, ex, graph), f.solve(b));
}

TEST(Ptg, LocalDiscoveryBeatsDtdAtScale) {
  // The paper's PTG argument: local-only task generation removes the
  // whole-graph discovery that limits HATRIX-DTD's scaling.
  driver::SimExperiment e;
  e.n = 262144;
  e.leaf_size = 256;
  e.rank = 100;
  e.nodes = 128;
  auto dtd = run_simulated(driver::System::HatrixDTD, e);
  auto ptg = run_simulated(driver::System::HatrixPTG, e);
  EXPECT_LT(ptg.factor_time, dtd.factor_time);
  // The gap should be substantial at this scale (discovery dominates DTD).
  EXPECT_LT(ptg.factor_time, 0.5 * dtd.factor_time);
}

TEST(Ptg, MatchesDtdOnOneProcess) {
  // With one process, local == global task sets: identical behaviour.
  driver::SimExperiment e;
  e.n = 8192;
  e.leaf_size = 256;
  e.rank = 60;
  e.nodes = 1;
  auto dtd = run_simulated(driver::System::HatrixDTD, e);
  auto ptg = run_simulated(driver::System::HatrixPTG, e);
  EXPECT_NEAR(dtd.factor_time, ptg.factor_time, 1e-12);
}

TEST(TraceExport, ChromeJsonWellFormedish) {
  rt::TaskGraph g;
  rt::DataId d = g.register_data("x");
  g.insert_task("first", "potrf", {8}, [] {}, {{d, rt::Access::ReadWrite}});
  g.insert_task("second", "trsm", {8, 8}, [] {}, {{d, rt::Access::ReadWrite}});
  rt::ThreadPoolExecutor ex(1);
  auto stats = ex.run(g);
  std::string json = rt::to_chrome_trace(g, stats);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"name\":\"first\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(TraceExport, DotContainsNodesAndEdges) {
  rt::TaskGraph g;
  rt::DataId d = g.register_data("x");
  g.insert_task("a", "potrf", {}, {}, {{d, rt::Access::ReadWrite}});
  g.insert_task("b", "trsm", {}, {}, {{d, rt::Access::ReadWrite}});
  std::string dot = rt::to_dot(g);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("t0 -> t1"), std::string::npos);
  EXPECT_NE(dot.find("label=\"a\""), std::string::npos);
}

TEST(CostModel, SolveKindsHaveCosts) {
  rt::Task t;
  t.kind = "fwd_solve";
  t.dims = {100, 20};
  EXPECT_GT(distsim::CostModel::task_flops(t), 0.0);
  t.kind = "potrs";
  t.dims = {50};
  EXPECT_NEAR(distsim::CostModel::task_flops(t), 5000.0, 1e-9);
}

TEST(SolveDag, SimulatedDistributedSolveIsFastRelativeToFactor) {
  // End-to-end: simulate both the factorization DAG and the solve DAG at
  // the same scale; the O(N·r) solve must be much cheaper than the O(N·r^2)
  // factorization.
  Rng rng(209);
  auto h = fmt::make_random_spd_hss(4096, 256, 24, rng);
  auto f = ulv::HSSULV::factorize(h);
  std::vector<double> b = rng.normal_vector(4096);

  rt::TaskGraph gf;
  (void)ulv::emit_hss_ulv_dag(h, gf, false);
  rt::TaskGraph gs;
  std::vector<double> x(b.size());
  ulv::emit_hss_solve_dag(f, {b.data(), 4096, 1, 4096}, {x.data(), 4096, 1, 4096}, gs);

  // Same topology family: forward+gather+root+backward has exactly the
  // same task count as diag+partial+merge+root.
  EXPECT_EQ(gs.num_tasks(), gf.num_tasks());
  distsim::CostModel cost(2.0);
  double factor_work = 0.0, solve_work = 0.0;
  for (const auto& t : gf.tasks()) factor_work += cost.seconds(t);
  for (const auto& t : gs.tasks()) solve_work += cost.seconds(t);
  EXPECT_LT(solve_work, 0.2 * factor_work);
}

}  // namespace
}  // namespace hatrix
