// Static race & ordering verifier (runtime/dag_verify.hpp): structural
// rejection (self-dependency, dangling edge, cycle, corrupted in-degree),
// reachability-based race detection over declared TaskAccess sets, the
// width/critical-path statistics, the verify-before-run executor mode, and
// the regression proving a dropped TRANSFER edge in the real N=8192 HSS
// builder DAG is caught as the race it is.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>

#include "blrchol/blr_cholesky_tasks.hpp"
#include "common/rng.hpp"
#include "format/accessor.hpp"
#include "format/hss_builder.hpp"
#include "format/hss_builder_tasks.hpp"
#include "geometry/cluster_tree.hpp"
#include "kernels/kernel_matrix.hpp"
#include "kernels/kernels.hpp"
#include "runtime/dag_verify.hpp"
#include "runtime/thread_pool_executor.hpp"
#include "ulv/hss_solve_tasks.hpp"
#include "ulv/hss_ulv_tasks.hpp"

namespace hatrix {
namespace {

using la::index_t;

rt::TaskId find_task(const rt::TaskGraph& g, const std::string& name) {
  for (const auto& t : g.tasks())
    if (t.name == name) return t.id;
  ADD_FAILURE() << "no task named " << name;
  return -1;
}

// Small real kernel-matrix problem shared by the production-DAG tests.
struct Problem {
  std::unique_ptr<geom::ClusterTree> tree;
  std::unique_ptr<kernels::Kernel> kernel;
  std::unique_ptr<kernels::KernelMatrix> km;
  std::unique_ptr<fmt::KernelAccessor> acc;

  explicit Problem(index_t n, index_t leaf) {
    geom::Domain d = geom::grid2d(n);
    tree = std::make_unique<geom::ClusterTree>(d, leaf);
    kernel = kernels::make_kernel("yukawa");
    km = std::make_unique<kernels::KernelMatrix>(*kernel, tree->points());
    acc = std::make_unique<fmt::KernelAccessor>(*km);
  }
};

// ---------------------------------------------------------------- structure

TEST(DagVerifyStructure, EmptyGraphPasses) {
  rt::TaskGraph g;
  rt::DagStats s = rt::verify_dag(g);
  EXPECT_EQ(s.tasks, 0);
  EXPECT_EQ(s.edges, 0);
  EXPECT_EQ(s.critical_path, 0);
}

TEST(DagVerifyStructure, SelfDependencyRejected) {
  rt::TaskGraph g;
  auto a = g.insert_task("A", "noop", {}, {}, {});
  g.add_dependency_for_test(a, a);
  try {
    rt::verify_dag(g);
    FAIL() << "self-dependency not rejected";
  } catch (const rt::DagStructureError& e) {
    EXPECT_NE(std::string(e.what()).find("self-dependency"), std::string::npos);
  }
}

TEST(DagVerifyStructure, DanglingDependencyRejected) {
  rt::TaskGraph g;
  auto a = g.insert_task("A", "noop", {}, {}, {});
  g.add_dependency_for_test(a, 57);  // no such task
  try {
    rt::verify_dag(g);
    FAIL() << "dangling edge not rejected";
  } catch (const rt::DagStructureError& e) {
    EXPECT_NE(std::string(e.what()).find("dangling"), std::string::npos);
  }
}

TEST(DagVerifyStructure, CycleRejected) {
  rt::TaskGraph g;
  auto a = g.insert_task("A", "noop", {}, {}, {});
  auto b = g.insert_task("B", "noop", {}, {}, {});
  g.add_dependency_for_test(a, b);
  g.add_dependency_for_test(b, a);
  try {
    rt::verify_dag(g);
    FAIL() << "cycle not rejected";
  } catch (const rt::DagStructureError& e) {
    EXPECT_NE(std::string(e.what()).find("cycle"), std::string::npos);
  }
}

TEST(DagVerifyStructure, DuplicateEdgesAreHarmless) {
  rt::TaskGraph g;
  auto r = g.register_data("r");
  auto a = g.insert_task("A", "noop", {}, {}, {{r, rt::Access::ReadWrite}});
  auto b = g.insert_task("B", "noop", {}, {}, {{r, rt::Access::ReadWrite}});
  // A second, parallel A->B edge on top of the derived W/W edge: bookkeeping
  // stays consistent (the helper counts it) and verification still passes.
  g.add_dependency_for_test(a, b);
  rt::DagStats s = rt::verify_dag(g);
  EXPECT_EQ(s.tasks, 2);
  EXPECT_EQ(s.edges, 2);
  EXPECT_EQ(s.critical_path, 2);
}

// -------------------------------------------------------------------- races

TEST(DagVerifyRaces, ReadOnlySharingIsAllowed) {
  rt::TaskGraph g;
  auto r = g.register_data("shared");
  g.insert_task("R1", "noop", {}, {}, {{r, rt::Access::Read}});
  g.insert_task("R2", "noop", {}, {}, {{r, rt::Access::Read}});
  g.insert_task("R3", "noop", {}, {}, {{r, rt::Access::Read}});
  rt::DagStats s = rt::verify_dag(g);  // three unordered readers: fine
  EXPECT_EQ(s.edges, 0);
  EXPECT_EQ(s.max_width, 3);
  EXPECT_EQ(s.critical_path, 1);
}

TEST(DagVerifyRaces, UnorderedWriteWriteRejected) {
  rt::TaskGraph g;
  auto r = g.register_data("block");
  auto a = g.insert_task("W1", "noop", {}, {}, {{r, rt::Access::ReadWrite}});
  auto b = g.insert_task("W2", "noop", {}, {}, {{r, rt::Access::ReadWrite}});
  ASSERT_TRUE(g.drop_dependency_for_test(a, b));
  try {
    rt::verify_dag(g);
    FAIL() << "unordered W/W not rejected";
  } catch (const rt::DagRaceError& e) {
    EXPECT_EQ(e.task_a, a);
    EXPECT_EQ(e.task_b, b);
    EXPECT_EQ(e.resource, r);
    EXPECT_EQ(e.task_a_name, "W1");
    EXPECT_EQ(e.task_b_name, "W2");
    EXPECT_EQ(e.resource_name, "block");
  }
}

TEST(DagVerifyRaces, UnorderedReadWriteRejected) {
  rt::TaskGraph g;
  auto r = g.register_data("block");
  auto w = g.insert_task("W", "noop", {}, {}, {{r, rt::Access::ReadWrite}});
  auto rd = g.insert_task("R", "noop", {}, {}, {{r, rt::Access::Read}});
  ASSERT_TRUE(g.drop_dependency_for_test(w, rd));
  EXPECT_THROW(rt::verify_dag(g), rt::DagRaceError);
}

TEST(DagVerifyRaces, DiamondOrderingAcceptedWithoutDirectEdge) {
  // A writes, B and C read, D writes again. Dropping the direct A->D
  // (W/W) edge must still verify: D remains ordered after A through
  // A->B->D — the verifier checks reachability, not direct edges.
  rt::TaskGraph g;
  auto r = g.register_data("r");
  auto a = g.insert_task("A", "noop", {}, {}, {{r, rt::Access::ReadWrite}});
  g.insert_task("B", "noop", {}, {}, {{r, rt::Access::Read}});
  g.insert_task("C", "noop", {}, {}, {{r, rt::Access::Read}});
  auto d = g.insert_task("D", "noop", {}, {}, {{r, rt::Access::ReadWrite}});
  ASSERT_TRUE(g.drop_dependency_for_test(a, d));
  rt::DagStats s = rt::verify_dag(g);
  EXPECT_EQ(s.critical_path, 3);  // A -> {B,C} -> D
  EXPECT_EQ(s.max_width, 2);
  // But cutting one of the diamond's sides as well IS a race: D still
  // depends on B, yet nothing orders it after C's read.
  auto c = find_task(g, "C");
  ASSERT_TRUE(g.drop_dependency_for_test(c, d));
  EXPECT_THROW(rt::verify_dag(g), rt::DagRaceError);
}

TEST(DagVerifyRaces, TwoAccessesOfOneTaskDoNotSelfConflict) {
  rt::TaskGraph g;
  auto r = g.register_data("r");
  // One task declaring the same resource twice (read + write) is not a race
  // with itself.
  g.insert_task("A", "noop", {}, {},
                {{r, rt::Access::Read}, {r, rt::Access::ReadWrite}});
  EXPECT_NO_THROW(rt::verify_dag(g));
}

// -------------------------------------------------------------------- stats

TEST(DagVerifyStats, ChainPlusIndependentTask) {
  rt::TaskGraph g;
  auto r = g.register_data("r");
  g.insert_task("A", "noop", {}, {}, {{r, rt::Access::ReadWrite}});
  g.insert_task("B", "noop", {}, {}, {{r, rt::Access::ReadWrite}});
  g.insert_task("C", "noop", {}, {}, {{r, rt::Access::ReadWrite}});
  g.insert_task("D", "noop", {}, {}, {});
  rt::DagStats s = rt::verify_dag(g);
  EXPECT_EQ(s.tasks, 4);
  EXPECT_EQ(s.edges, 2);
  EXPECT_EQ(s.critical_path, 3);      // A -> B -> C
  EXPECT_EQ(s.max_width, 2);          // depth 1 holds A and D
  EXPECT_DOUBLE_EQ(s.avg_width, 4.0 / 3.0);
  EXPECT_EQ(s.critical_path, g.critical_path_length());
}

// --------------------------------------------------------- production DAGs

TEST(DagVerifyProduction, ConstructionFactorAndSolveDagsAllPass) {
  Problem p(512, 64);
  fmt::HSSOptions opts{.leaf_size = 64, .max_rank = 24, .sample_cols = 48,
                       .guard_tol = 1e-4};

  // Construction DAG, as emitted (and also after really executing it).
  rt::TaskGraph build_graph;
  auto build_dag = fmt::emit_hss_build_dag(*p.acc, opts, build_graph);
  rt::DagStats bs = rt::verify_dag(build_graph);
  EXPECT_GT(bs.tasks, 0);
  EXPECT_GT(bs.max_width, 1);

  rt::ThreadPoolExecutor ex(2);
  ex.set_verify_dag(true);  // verify-before-run on the real executor path
  ex.run(build_graph);
  fmt::HSSMatrix h = fmt::extract_built_hss(build_dag);

  // Factorization DAG on the built matrix.
  rt::TaskGraph factor_graph;
  auto factor_dag = ulv::emit_hss_ulv_dag(h, factor_graph, /*with_work=*/true);
  EXPECT_NO_THROW(rt::verify_dag(factor_graph));
  ex.run(factor_graph);
  ulv::HSSULV f = ulv::extract_factorization(factor_dag);

  // Solve DAG on the finished factorization.
  Rng rng(3);
  std::vector<double> b = rng.normal_vector(512);
  std::vector<double> x(512);
  rt::TaskGraph solve_graph;
  ulv::emit_hss_solve_dag(f, {b.data(), 512, 1, 512}, {x.data(), 512, 1, 512},
                          solve_graph);
  rt::DagStats ss = rt::verify_dag(solve_graph);
  // Forward sweep up the tree, root solve, backward sweep down again.
  EXPECT_GE(ss.critical_path, 2 * (ss.max_width > 1 ? 2 : 1));
  ex.run(solve_graph);
  EXPECT_EQ(x, f.solve(b));
}

TEST(DagVerifyProduction, CholeskyDagsPass) {
  rt::TaskGraph dense;
  (void)blrchol::emit_dense_cholesky_dag({}, 4 * 32, 32, dense, /*with_work=*/false);
  EXPECT_NO_THROW(rt::verify_dag(dense));

  auto blr = fmt::make_blr_skeleton(1024, 128, 16);
  rt::TaskGraph blr_graph;
  (void)blrchol::emit_blr_cholesky_dag(blr, blr_graph, /*with_work=*/false);
  EXPECT_NO_THROW(rt::verify_dag(blr_graph));
}

// The verifier stays cheap on the largest DAGs the simulations emit (~5k
// tasks): bit-parallel reachability keeps it well inside the fast label.
TEST(DagVerifyProduction, LargeUlvDagVerifiesFast) {
  auto skel = fmt::make_hss_skeleton(262144, 256, 100);
  rt::TaskGraph g;
  (void)ulv::emit_hss_ulv_dag(skel, g, /*with_work=*/false);
  rt::DagStats s = rt::verify_dag(g);
  EXPECT_GT(s.tasks, 3000);
  EXPECT_EQ(s.critical_path, g.critical_path_length());
}

// ------------------------------------------------- the builder-race regression

// The race that motivated the verifier: the N=8192 task-parallel HSS build
// (the guard-regression configuration) with one TRANSFER dependency edge
// dropped — exactly what an emitter bug losing a child->parent edge would
// produce. COMPRESS(L,0) writes node(L,0)'s basis/skeleton state and
// TRANSFER(L-1,0) reads it; without the edge nothing orders them and an
// asynchronous executor is free to run the transfer against a half-written
// basis. The verifier must name that exact pair and resource. Emission is
// cheap (closures never run), so this uses the full-size DAG.
TEST(DagVerifyRegression, DroppedTransferEdgeInBuilderDagIsARace) {
  Problem p(8192, 64);
  fmt::HSSOptions opts{.leaf_size = 64, .max_rank = 20, .sample_cols = 64};
  rt::TaskGraph g;
  auto dag = fmt::emit_hss_build_dag(*p.acc, opts, g);
  ASSERT_NO_THROW(rt::verify_dag(g));  // the unmutated DAG is complete

  const int L = fmt::hss_levels(8192, 64);
  const std::string child = "COMPRESS(" + std::to_string(L) + ",0)";
  const std::string parent = "TRANSFER(" + std::to_string(L - 1) + ",0)";
  const rt::TaskId c = find_task(g, child);
  const rt::TaskId t = find_task(g, parent);
  ASSERT_TRUE(g.drop_dependency_for_test(c, t));

  try {
    rt::verify_dag(g);
    FAIL() << "dropped TRANSFER edge not flagged";
  } catch (const rt::DagRaceError& e) {
    EXPECT_EQ(e.task_a, c);
    EXPECT_EQ(e.task_b, t);
    EXPECT_EQ(e.task_a_name, child);
    EXPECT_EQ(e.task_b_name, parent);
    EXPECT_EQ(e.resource, dag.node_data[static_cast<std::size_t>(L)][0]);
    EXPECT_EQ(e.resource_name, "node(" + std::to_string(L) + ",0)");
    // The message is actionable on its own.
    const std::string what = e.what();
    EXPECT_NE(what.find(child), std::string::npos);
    EXPECT_NE(what.find(parent), std::string::npos);
    EXPECT_NE(what.find("node(" + std::to_string(L) + ",0)"), std::string::npos);
  }
}

// ------------------------------------------------------- executor integration

TEST(DagVerifyExecutors, VerifyingExecutorRefusesRacyGraphBeforeAnyWork) {
  std::atomic<int> ran{0};
  rt::TaskGraph g;
  auto r = g.register_data("r");
  auto a = g.insert_task("W1", "noop", {}, [&] { ++ran; },
                         {{r, rt::Access::ReadWrite}});
  auto b = g.insert_task("W2", "noop", {}, [&] { ++ran; },
                         {{r, rt::Access::ReadWrite}});
  ASSERT_TRUE(g.drop_dependency_for_test(a, b));

  rt::ThreadPoolExecutor pool(2);
  pool.set_verify_dag(true);
  EXPECT_THROW(pool.run(g), rt::DagRaceError);
  // A racy graph is a programming error: it throws even when the caller
  // opted into capturing task-body failures, and nothing ever runs.
  std::exception_ptr err;
  EXPECT_THROW(pool.run(g, &err), rt::DagRaceError);
  EXPECT_EQ(ran.load(), 0);

  rt::ThreadPoolExecutor fj(2, rt::Schedule::Phased);
  fj.set_verify_dag(true);
  EXPECT_THROW(fj.run(g), rt::DagRaceError);
  EXPECT_EQ(ran.load(), 0);

  // With verification off the (benignly) racy graph still executes — the
  // verifier is a gate, not a scheduler constraint.
  pool.set_verify_dag(false);
  EXPECT_FALSE(pool.verify_dag_enabled());
  pool.run(g);
  EXPECT_EQ(ran.load(), 2);
}

}  // namespace
}  // namespace hatrix
