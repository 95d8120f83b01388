// Static dataflow & memory-lifetime analyzer (runtime/dag_dataflow.hpp):
// def-use chain semantics (use-before-def, dead stores and the trailing
// in-place-update exemption, write-after-last-read, dead tasks, zero-byte
// handles), lifetime intervals and the last-use release schedule, the exact
// serial peak and the any-schedule peak bound, per-rank footprint/traffic
// against distsim::count_messages, the analyze-before-run executor mode, the
// release hook firing exactly once per handle on all three executors, and
// the regression proving seeded annotation bugs in the real N=8192 HSS
// builder DAG are flagged with the exact task and resource names.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "blrchol/blr_cholesky_tasks.hpp"
#include "common/timer.hpp"
#include "distsim/des.hpp"
#include "format/accessor.hpp"
#include "format/hss_builder.hpp"
#include "format/hss_builder_tasks.hpp"
#include "geometry/cluster_tree.hpp"
#include "kernels/kernel_matrix.hpp"
#include "kernels/kernels.hpp"
#include "runtime/dag_dataflow.hpp"
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

int count_warnings(const rt::DagDataflowReport& rep, rt::DagWarningKind kind) {
  int n = 0;
  for (const auto& w : rep.warnings)
    if (w.kind == kind) ++n;
  return n;
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

// ---------------------------------------------------------------- semantics

TEST(DagDataflow, EmptyGraphClean) {
  rt::TaskGraph g;
  rt::DagDataflowReport rep = rt::analyze_dag(g);
  EXPECT_EQ(rep.stats.tasks, 0);
  EXPECT_EQ(rep.stats.data_bytes, 0);
  EXPECT_EQ(rep.stats.peak_bytes_serial, 0);
  EXPECT_EQ(rep.stats.peak_bytes_any, 0);
  EXPECT_TRUE(rep.warnings.empty());
}

TEST(DagDataflow, UseBeforeDefThrows) {
  rt::TaskGraph g;
  auto d = g.register_data("blk", 64);
  g.insert_task("READER", "noop", {}, {}, {{d, rt::Access::Read}});
  try {
    rt::analyze_dag(g);
    FAIL() << "read of never-written handle not rejected";
  } catch (const rt::DagUseBeforeDefError& e) {
    EXPECT_EQ(e.task, 0);
    EXPECT_EQ(e.resource, d);
    EXPECT_EQ(e.task_name, "READER");
    EXPECT_EQ(e.resource_name, "blk");
    EXPECT_NE(std::string(e.what()).find("READER"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("blk"), std::string::npos);
  }
}

TEST(DagDataflow, InputMarkAcceptsPreloadedRead) {
  rt::TaskGraph g;
  auto d = g.register_data("seeded", 128);
  g.mark_input(d);
  g.insert_task("READER", "noop", {}, {}, {{d, rt::Access::Read}});
  rt::DagDataflowReport rep = rt::analyze_dag(g);
  EXPECT_TRUE(rep.warnings.empty());
  EXPECT_EQ(rep.lifetimes[static_cast<std::size_t>(d)].def, -1);
  EXPECT_EQ(rep.lifetimes[static_cast<std::size_t>(d)].last_use, 0);
  EXPECT_EQ(rep.lifetimes[static_cast<std::size_t>(d)].uses, 1);
  // Inputs are resident from the start of the schedule.
  EXPECT_EQ(rep.stats.peak_bytes_serial, 128);
}

TEST(DagDataflow, ReadWriteIsAnImplicitDef) {
  rt::TaskGraph g;
  auto d = g.register_data("blk", 64);
  g.mark_output(d);
  g.insert_task("INIT", "noop", {}, {}, {{d, rt::Access::ReadWrite}});
  EXPECT_NO_THROW(rt::analyze_dag(g));
}

TEST(DagDataflow, DeadStoreWarnedAndOutputMarkSuppresses) {
  for (const bool output : {false, true}) {
    rt::TaskGraph g;
    auto d = g.register_data("result", 64);
    if (output) g.mark_output(d);
    g.insert_task("PRODUCER", "noop", {}, {}, {{d, rt::Access::Write}});
    rt::DagDataflowReport rep = rt::analyze_dag(g);
    if (output) {
      EXPECT_TRUE(rep.warnings.empty());
    } else {
      ASSERT_EQ(count_warnings(rep, rt::DagWarningKind::DeadStore), 1);
      ASSERT_EQ(count_warnings(rep, rt::DagWarningKind::DeadTask), 1);
      EXPECT_EQ(rep.warnings[0].task_name, "PRODUCER");
      EXPECT_EQ(rep.warnings[0].resource_name, "result");
    }
  }
}

TEST(DagDataflow, TrailingInPlaceUpdateIsNotADeadStore) {
  // A defines the value, B updates it in place (ReadWrite): the chain's
  // final state is inspected by the caller — tile-Cholesky panels do this.
  rt::TaskGraph g;
  auto d = g.register_data("panel", 64);
  g.insert_task("A", "noop", {}, {}, {{d, rt::Access::Write}});
  g.insert_task("B", "noop", {}, {}, {{d, rt::Access::ReadWrite}});
  rt::DagDataflowReport rep = rt::analyze_dag(g);
  EXPECT_EQ(count_warnings(rep, rt::DagWarningKind::DeadStore), 0);
  EXPECT_EQ(count_warnings(rep, rt::DagWarningKind::DeadTask), 0);
}

TEST(DagDataflow, WriteAfterLastReadWarned) {
  // A's value is clobbered by B's pure Write before anyone read it; C then
  // consumes B's value so only the clobber is reported.
  rt::TaskGraph g;
  auto d = g.register_data("blk", 64);
  g.insert_task("A", "noop", {}, {}, {{d, rt::Access::Write}});
  g.insert_task("B", "noop", {}, {}, {{d, rt::Access::Write}});
  g.insert_task("C", "noop", {}, {}, {{d, rt::Access::Read}});
  rt::DagDataflowReport rep = rt::analyze_dag(g);
  ASSERT_EQ(count_warnings(rep, rt::DagWarningKind::WriteAfterLastRead), 1);
  EXPECT_EQ(count_warnings(rep, rt::DagWarningKind::DeadStore), 0);
  // A produced nothing observable.
  EXPECT_EQ(count_warnings(rep, rt::DagWarningKind::DeadTask), 1);
  for (const auto& w : rep.warnings)
    if (w.kind == rt::DagWarningKind::WriteAfterLastRead) {
      EXPECT_EQ(w.task_name, "B");
      EXPECT_NE(w.message.find("A"), std::string::npos);
    }
}

TEST(DagDataflow, ReadWriteConsumesSoNoClobberWarning) {
  rt::TaskGraph g;
  auto d = g.register_data("blk", 64);
  g.mark_output(d);
  g.insert_task("A", "noop", {}, {}, {{d, rt::Access::Write}});
  g.insert_task("B", "noop", {}, {}, {{d, rt::Access::ReadWrite}});
  rt::DagDataflowReport rep = rt::analyze_dag(g);
  EXPECT_TRUE(rep.warnings.empty());
}

TEST(DagDataflow, ZeroByteHandleWarnedOnlyWhenAccessed) {
  rt::TaskGraph g;
  auto d0 = g.register_data("touched", 0);
  g.register_data("untouched", 0);
  g.mark_output(d0);
  g.insert_task("A", "noop", {}, {}, {{d0, rt::Access::Write}});
  rt::DagDataflowReport rep = rt::analyze_dag(g);
  ASSERT_EQ(count_warnings(rep, rt::DagWarningKind::ZeroBytes), 1);
  EXPECT_EQ(rep.warnings[0].resource_name, "touched");
  EXPECT_EQ(rep.warnings[0].task, -1);
}

// ------------------------------------------------------- lifetimes & peaks

TEST(DagDataflow, LifetimesAndSerialPeakExact) {
  // a (input, 100 B) --T1--> b (200 B) --T2--> c (output, 400 B).
  // Serial residency: 100 | T1: 300, then a retires -> 200 | T2: 600, then
  // b retires -> 400. Peak = 600.
  rt::TaskGraph g;
  auto a = g.register_data("a", 100);
  auto b = g.register_data("b", 200);
  auto c = g.register_data("c", 400);
  g.mark_input(a);
  g.mark_output(c);
  auto t1 = g.insert_task("T1", "noop", {}, {},
                          {{a, rt::Access::Read}, {b, rt::Access::Write}});
  auto t2 = g.insert_task("T2", "noop", {}, {},
                          {{b, rt::Access::Read}, {c, rt::Access::Write}});
  rt::DagDataflowReport rep = rt::analyze_dag(g);
  EXPECT_TRUE(rep.warnings.empty());
  EXPECT_EQ(rep.stats.data_bytes, 700);
  EXPECT_EQ(rep.stats.peak_bytes_serial, 600);
  // A chain admits exactly one schedule: the bound is tight.
  EXPECT_EQ(rep.stats.peak_bytes_any, 600);

  const auto& lb = rep.lifetimes[static_cast<std::size_t>(b)];
  EXPECT_EQ(lb.def, t1);
  EXPECT_EQ(lb.last_use, t2);
  EXPECT_EQ(lb.uses, 2);
}

TEST(DagDataflow, AnySchedulePeakDominatesSerial) {
  // Two unordered producer tasks: serially one block retires before the
  // other materializes (peak 300), but a parallel schedule can hold both.
  rt::TaskGraph g;
  auto a = g.register_data("a", 300);
  auto b = g.register_data("b", 200);
  g.insert_task("A", "noop", {}, {}, {{a, rt::Access::Write}});
  g.insert_task("B", "noop", {}, {}, {{b, rt::Access::Write}});
  g.mark_output(a);  // silence dead-store warnings; a stays resident
  rt::DagDataflowReport rep = rt::analyze_dag(g);
  EXPECT_EQ(rep.stats.peak_bytes_serial, 500);  // a is an output: no retire
  EXPECT_GE(rep.stats.peak_bytes_any, rep.stats.peak_bytes_serial);
}

TEST(DagDataflow, ReleasePlanCountsDistinctTasksAndSkipsOutputs) {
  rt::TaskGraph g;
  auto a = g.register_data("a", 8);
  auto b = g.register_data("b", 8);
  g.mark_output(b);
  // T0 declares a twice; the plan must count it once.
  g.insert_task("T0", "noop", {}, {},
                {{a, rt::Access::Write}, {a, rt::Access::ReadWrite}});
  g.insert_task("T1", "noop", {}, {},
                {{a, rt::Access::Read}, {b, rt::Access::Write}});
  rt::ReleasePlan plan = rt::release_plan(g);
  EXPECT_EQ(plan.initial_uses[static_cast<std::size_t>(a)], 2);
  EXPECT_EQ(plan.initial_uses[static_cast<std::size_t>(b)], 0);
  ASSERT_EQ(plan.task_data.size(), 2u);
  EXPECT_EQ(plan.task_data[0], std::vector<rt::DataId>{a});
  EXPECT_EQ(plan.task_data[1], std::vector<rt::DataId>{a});
}

// ------------------------------------------------------------- executors

TEST(DagDataflow, ExecutorAnalyzeGateRejectsUseBeforeDef) {
  rt::TaskGraph g;
  auto d = g.register_data("blk", 64);
  g.insert_task("READER", "noop", {}, [] {}, {{d, rt::Access::Read}});
  rt::ThreadPoolExecutor ex(2);
  ex.set_verify_dag(false);
  ex.set_analyze_dag(true);
  EXPECT_THROW(ex.run(g), rt::DagUseBeforeDefError);
  ex.set_analyze_dag(false);
  EXPECT_NO_THROW(ex.run(g));
}

TEST(DagDataflow, ReleaseHookFiresExactlyOncePerHandleOnAllExecutors) {
  for (int which = 0; which < 3; ++which) {
    rt::TaskGraph g;
    auto in = g.register_data("in", 8);
    auto mid = g.register_data("mid", 8);
    auto out = g.register_data("out", 8);
    g.mark_input(in);
    g.mark_output(out);
    g.insert_task("A", "noop", {}, [] {},
                  {{in, rt::Access::Read}, {mid, rt::Access::Write}});
    for (int i = 0; i < 4; ++i)
      g.insert_task("R" + std::to_string(i), "noop", {}, [] {},
                    {{mid, rt::Access::Read}});
    g.insert_task("Z", "noop", {}, [] {},
                  {{mid, rt::Access::Read}, {out, rt::Access::Write}});

    auto fires = std::make_shared<std::array<std::atomic<int>, 3>>();
    for (auto& f : *fires) f.store(0);
    g.set_release_hook([fires](rt::DataId d) {
      (*fires)[static_cast<std::size_t>(d)].fetch_add(1);
    });

    switch (which) {
      case 0: {
        rt::ThreadPoolExecutor ex(3);
        ex.run(g);
        break;
      }
      case 1: {
        rt::ThreadPoolExecutor ex(3, rt::Schedule::CriticalPath);
        ex.run(g);
        break;
      }
      default: {
        rt::ThreadPoolExecutor ex(3, rt::Schedule::Phased);
        ex.run(g);
        break;
      }
    }
    EXPECT_EQ((*fires)[static_cast<std::size_t>(in)].load(), 1) << which;
    EXPECT_EQ((*fires)[static_cast<std::size_t>(mid)].load(), 1) << which;
    EXPECT_EQ((*fires)[static_cast<std::size_t>(out)].load(), 0) << which;
  }
}

// ------------------------------------------------- production DAGs run clean

TEST(DagDataflow, ProductionEmittersAnalyzeClean) {
  Problem p(512, 64);
  fmt::HSSOptions opts{.leaf_size = 64, .max_rank = 16, .tol = 0.0,
                       .sample_cols = 64};

  rt::TaskGraph build_graph;
  auto build_dag = fmt::emit_hss_build_dag(*p.acc, opts, build_graph);
  rt::DagDataflowReport build_rep = rt::analyze_dag(build_graph);
  EXPECT_TRUE(build_rep.warnings.empty());
  EXPECT_GT(build_rep.stats.peak_bytes_serial, 0);
  EXPECT_GE(build_rep.stats.peak_bytes_any, build_rep.stats.peak_bytes_serial);

  rt::ThreadPoolExecutor ex(2);
  ex.run(build_graph);
  fmt::HSSMatrix h = fmt::extract_built_hss(build_dag);

  rt::TaskGraph factor_graph;
  auto factor_dag = ulv::emit_hss_ulv_dag(h, factor_graph, /*with_work=*/true);
  rt::DagDataflowReport factor_rep = rt::analyze_dag(factor_graph);
  EXPECT_TRUE(factor_rep.warnings.empty());
  ex.run(factor_graph);
  ulv::HSSULV f = ulv::extract_factorization(factor_dag);

  rt::TaskGraph solve_graph;
  std::vector<double> b(512, 1.0), x(512);
  ulv::emit_hss_solve_dag(f, {b.data(), 512, 1, 512}, {x.data(), 512, 1, 512},
                          solve_graph);
  EXPECT_TRUE(rt::analyze_dag(solve_graph).warnings.empty());
}

TEST(DagDataflow, CostingDagsAnalyzeClean) {
  fmt::HSSMatrix hss_skel = fmt::make_hss_skeleton(2048, 128, 20);
  rt::TaskGraph ulv_graph;
  (void)ulv::emit_hss_ulv_dag(hss_skel, ulv_graph, /*with_work=*/false);
  EXPECT_TRUE(rt::analyze_dag(ulv_graph).warnings.empty());

  fmt::BLRMatrix blr_skel = fmt::make_blr_skeleton(1024, 128, 16);
  rt::TaskGraph blr_graph;
  (void)blrchol::emit_blr_cholesky_dag(blr_skel, blr_graph, /*with_work=*/false);
  EXPECT_TRUE(rt::analyze_dag(blr_graph).warnings.empty());

  rt::TaskGraph dense_graph;
  (void)blrchol::emit_dense_cholesky_dag({}, 1024, 128, dense_graph,
                                         /*with_work=*/false);
  EXPECT_TRUE(rt::analyze_dag(dense_graph).warnings.empty());
}

// ----------------------------------------------- per-rank usage vs distsim

TEST(DagDataflow, RankTrafficMatchesDistsimCountMessages) {
  fmt::HSSMatrix skel = fmt::make_hss_skeleton(4096, 256, 32);
  rt::TaskGraph graph;
  auto dag = ulv::emit_hss_ulv_dag(skel, graph, /*with_work=*/false);
  distsim::Mapping map = distsim::map_hss_row_cyclic(dag, graph, 4);

  rt::RankUsage usage = rt::analyze_dag_ranks(graph, map.task_owner, 4);
  distsim::CommStats comm = distsim::count_messages(graph, map);
  EXPECT_EQ(usage.cross_messages, comm.messages);
  EXPECT_EQ(usage.cross_bytes, comm.bytes);

  std::int64_t sent = 0;
  for (auto s : usage.sent_bytes) sent += s;
  EXPECT_EQ(sent, usage.cross_bytes);
  // Every rank holds something; replicated copies push the total footprint
  // to at least the touched bytes.
  std::int64_t foot = 0;
  for (auto f : usage.footprint_bytes) {
    EXPECT_GT(f, 0);
    foot += f;
  }
  rt::DagDataflowReport rep = rt::analyze_dag(graph);
  EXPECT_GE(foot, rep.stats.data_bytes);
}

// ------------------------------------- seeded mutations, real N=8192 builder

TEST(DagDataflow, SeededMutationsFlaggedOnRealBuilderDag) {
  Problem p(8192, 256);
  fmt::HSSOptions opts{.leaf_size = 256, .max_rank = 40, .tol = 0.0,
                       .sample_cols = 64};

  // Intact DAG: clean, and analysis stays in the ms-scale budget.
  {
    rt::TaskGraph g;
    (void)fmt::emit_hss_build_dag(*p.acc, opts, g);
    WallTimer t;
    rt::DagDataflowReport rep = rt::analyze_dag(g);
    const double ms = t.seconds() * 1e3;
    EXPECT_TRUE(rep.warnings.empty());
    EXPECT_LT(ms, 250.0) << "analyzer left the ms-scale budget";
  }

  // Mutation 1: drop COMPRESS(5,3)'s write of node(5,3). The parent
  // TRANSFER(4,1) now reads a handle no task writes.
  {
    rt::TaskGraph g;
    auto dag = fmt::emit_hss_build_dag(*p.acc, opts, g);
    const rt::DataId node53 = dag.node_data[5][3];
    ASSERT_TRUE(g.drop_access_for_test(find_task(g, "COMPRESS(5,3)"), node53));
    try {
      rt::analyze_dag(g);
      FAIL() << "dropped def not flagged";
    } catch (const rt::DagUseBeforeDefError& e) {
      EXPECT_EQ(e.task_name, "TRANSFER(4,1)");
      EXPECT_EQ(e.resource_name, "node(5,3)");
      EXPECT_EQ(e.resource, node53);
    }
  }

  // Mutation 2: drop MERGE_SAMPLE(1,0)'s read of node(1,0). Its producer
  // TRANSFER(1,0) becomes a dead store (level-1 nodes have no parent
  // TRANSFER; the sibling coupling was the only consumer).
  {
    rt::TaskGraph g;
    auto dag = fmt::emit_hss_build_dag(*p.acc, opts, g);
    const rt::DataId node10 = dag.node_data[1][0];
    ASSERT_TRUE(g.drop_access_for_test(find_task(g, "MERGE_SAMPLE(1,0)"), node10));
    rt::DagDataflowReport rep = rt::analyze_dag(g);
    ASSERT_EQ(count_warnings(rep, rt::DagWarningKind::DeadStore), 1);
    for (const auto& w : rep.warnings)
      if (w.kind == rt::DagWarningKind::DeadStore) {
        EXPECT_EQ(w.task_name, "TRANSFER(1,0)");
        EXPECT_EQ(w.resource_name, "node(1,0)");
        EXPECT_EQ(w.resource, node10);
      }
  }
}

// ------------------------------------------------------------- env gating

TEST(DagDataflow, EnvGateControlsDefault) {
  setenv("HATRIX_ANALYZE_DAG", "0", 1);
  EXPECT_FALSE(rt::analyze_dag_default());
  setenv("HATRIX_ANALYZE_DAG", "1", 1);
  EXPECT_TRUE(rt::analyze_dag_default());
  unsetenv("HATRIX_ANALYZE_DAG");
#ifdef NDEBUG
  EXPECT_FALSE(rt::analyze_dag_default());
#else
  EXPECT_TRUE(rt::analyze_dag_default());
#endif
}

}  // namespace
}  // namespace hatrix
