// Executor conformance suite: one parameterized fixture run against all
// three executors (fork-join, FIFO thread pool, critical-path priority) at
// several worker counts. Every executor must (a) produce bit-identical
// results to serial insertion-order execution on the full N=2048 HSS
// construct + factor + solve chain, (b) propagate typed task errors with the
// failing task's trace end-stamped, and (c) handle the empty / single-task /
// diamond DAG edge cases. This is the contract that lets the format, ulv and
// solve DAG emitters treat the executor as a drop-in choice.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "format/accessor.hpp"
#include "format/hss_builder_tasks.hpp"
#include "geometry/cluster_tree.hpp"
#include "kernels/kernel_matrix.hpp"
#include "kernels/kernels.hpp"
#include "linalg/matrix.hpp"
#include "runtime/thread_pool_executor.hpp"
#include "runtime/trace.hpp"
#include "ulv/hss_solve_tasks.hpp"
#include "ulv/hss_ulv_tasks.hpp"

namespace hatrix {
namespace {

using la::index_t;
using la::Matrix;

enum class Exec { ForkJoin = 0, Fifo = 1, Priority = 2 };

const char* exec_name(Exec e) {
  switch (e) {
    case Exec::ForkJoin: return "ForkJoin";
    case Exec::Fifo: return "Fifo";
    default: return "Priority";
  }
}

/// Run `graph` under the selected schedule with the uniform
/// run(graph, error_out) contract all three share.
rt::ExecutionStats run_any(Exec e, int workers, const rt::TaskGraph& graph,
                           std::exception_ptr* error_out = nullptr) {
  constexpr rt::Schedule kSchedule[] = {rt::Schedule::Phased, rt::Schedule::Fifo,
                                        rt::Schedule::CriticalPath};
  rt::ThreadPoolExecutor ex(workers, kSchedule[static_cast<int>(e)]);
  return ex.run(graph, error_out);
}

/// Serial reference: execute the closures in insertion (DTD submission)
/// order, bypassing every scheduler.
void run_serial(const rt::TaskGraph& graph) {
  for (const auto& t : graph.tasks())
    if (t.work) t.work();
}

// ---------------------------------------------------------------------------
// The N=2048 construct + factor + solve chain.

constexpr index_t kChainN = 2048;

struct ChainProblem {
  geom::Domain domain;
  std::unique_ptr<geom::ClusterTree> tree;
  std::unique_ptr<kernels::Kernel> kernel;
  std::unique_ptr<kernels::KernelMatrix> km;
  std::vector<double> b;

  ChainProblem() {
    domain = geom::grid2d(kChainN);
    tree = std::make_unique<geom::ClusterTree>(domain, 256);
    kernel = kernels::make_kernel("yukawa");
    km = std::make_unique<kernels::KernelMatrix>(*kernel, tree->points());
    Rng rng(2718);
    b = rng.normal_vector(kChainN);
  }

  [[nodiscard]] fmt::HSSOptions opts() const {
    return {.leaf_size = 256, .max_rank = 40, .tol = 0.0};
  }
};

struct ChainResult {
  fmt::HSSMatrix h;
  std::vector<double> x;
  Matrix root;
};

/// Build + factor + solve, running all three DAGs through `runner`.
/// `release` wires the emitters' early-release hooks (dag_dataflow last-use
/// schedule): Free drops retired blocks, Poison NaN-fills them so any task
/// reading past its proven last use corrupts the chain's bits.
template <typename Runner>
ChainResult run_chain(const ChainProblem& p, Runner&& runner,
                      rt::ReleaseMode release = rt::ReleaseMode::None) {
  fmt::KernelAccessor acc(*p.km);

  rt::TaskGraph build_graph;
  auto build_dag = fmt::emit_hss_build_dag(acc, p.opts(), build_graph, release);
  runner(build_graph);
  ChainResult out{fmt::extract_built_hss(build_dag), {}, {}};

  rt::TaskGraph ulv_graph;
  auto ulv_dag =
      ulv::emit_hss_ulv_dag(out.h, ulv_graph, /*with_work=*/true, release);
  runner(ulv_graph);
  auto factor = ulv::extract_factorization(ulv_dag);
  out.root = Matrix::from_view(factor.root_factor().view());

  rt::TaskGraph solve_graph;
  const auto n = static_cast<index_t>(p.b.size());
  out.x.resize(p.b.size());
  ulv::emit_hss_solve_dag(factor, {p.b.data(), n, 1, n}, {out.x.data(), n, 1, n},
                          solve_graph);
  runner(solve_graph);
  return out;
}

const ChainProblem& chain_problem() {
  static const ChainProblem p;
  return p;
}

/// Serial insertion-order reference, computed once for the whole suite.
const ChainResult& serial_chain() {
  static const ChainResult ref =
      run_chain(chain_problem(), [](const rt::TaskGraph& g) { run_serial(g); });
  return ref;
}

// ---------------------------------------------------------------------------

class ExecutorConformance
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  [[nodiscard]] Exec exec() const { return static_cast<Exec>(std::get<0>(GetParam())); }
  [[nodiscard]] int workers() const { return std::get<1>(GetParam()); }
};

/// Bit-identical, not approximately equal: the per-node deterministic RNG
/// and disjoint task outputs make every schedule produce the same bits.
void expect_chain_bit_identical(const ChainResult& got, const ChainResult& ref,
                                const std::string& what) {
  ASSERT_EQ(got.x.size(), ref.x.size()) << what;
  for (std::size_t i = 0; i < ref.x.size(); ++i)
    ASSERT_EQ(got.x[i], ref.x[i]) << what << ": solution differs at " << i;

  ASSERT_EQ(got.root.rows(), ref.root.rows()) << what;
  ASSERT_EQ(got.root.cols(), ref.root.cols()) << what;
  for (index_t i = 0; i < ref.root.rows(); ++i)
    for (index_t j = 0; j < ref.root.cols(); ++j)
      ASSERT_EQ(got.root(i, j), ref.root(i, j))
          << what << ": root factor differs";

  // Spot-check a built leaf basis, bitwise.
  const int L = ref.h.max_level();
  const la::ConstMatrixView vref = ref.h.node(L, 0).basis.view();
  const la::ConstMatrixView vgot = got.h.node(L, 0).basis.view();
  ASSERT_EQ(vgot.rows, vref.rows) << what;
  ASSERT_EQ(vgot.cols, vref.cols) << what;
  for (index_t i = 0; i < vref.rows; ++i)
    for (index_t j = 0; j < vref.cols; ++j)
      ASSERT_EQ(vgot(i, j), vref(i, j)) << what << ": leaf basis differs";
}

TEST_P(ExecutorConformance, ChainBitIdenticalToSerialInsertionOrder) {
  const auto& p = chain_problem();
  const auto& ref = serial_chain();
  auto got = run_chain(p, [&](const rt::TaskGraph& g) {
    auto stats = run_any(exec(), workers(), g);
    ASSERT_EQ(rt::validate_trace(g, stats), "")
        << exec_name(exec()) << " workers=" << workers();
  });
  expect_chain_bit_identical(got, ref, exec_name(exec()));
}

TEST_P(ExecutorConformance, ChainBitIdenticalWithEarlyRelease) {
  // Free mode drops every retired sampling/panel block at its statically
  // proven last use; the chain's bits must not move. The executors fire the
  // release hook from worker threads, so this also exercises the refcount
  // path at every worker count.
  const auto& p = chain_problem();
  const auto& ref = serial_chain();
  auto got = run_chain(
      p,
      [&](const rt::TaskGraph& g) { (void)run_any(exec(), workers(), g); },
      rt::ReleaseMode::Free);
  expect_chain_bit_identical(got, ref,
                             std::string(exec_name(exec())) + "+release");
}

TEST_P(ExecutorConformance, PoisonOnReleaseKeepsChainBitIdentical) {
  // Debug mode: retired blocks are NaN-filled instead of freed. If any task
  // read a block past its statically-proven last use, the NaNs would
  // propagate into the factor/solution and the bitwise compare would fail —
  // this is the executable proof the analyzer's lifetimes are conservative.
  const auto& p = chain_problem();
  const auto& ref = serial_chain();
  auto got = run_chain(
      p,
      [&](const rt::TaskGraph& g) { (void)run_any(exec(), workers(), g); },
      rt::ReleaseMode::Poison);
  expect_chain_bit_identical(got, ref,
                             std::string(exec_name(exec())) + "+poison");
}

/// The typed error every executor must deliver intact.
class ConformanceError : public Error {
 public:
  using Error::Error;
};

TEST_P(ExecutorConformance, TypedErrorPropagatesWithEndStampedTrace) {
  rt::TaskGraph g;
  rt::DataId a = g.register_data("a");
  rt::DataId b = g.register_data("b");
  g.insert_task("ok", "k", {}, [] {}, {{a, rt::Access::ReadWrite}}, 0, 0);
  g.insert_task("boom", "k", {},
                [] {
                  std::this_thread::sleep_for(std::chrono::milliseconds(5));
                  throw ConformanceError("typed boom");
                },
                {{b, rt::Access::ReadWrite}}, 0, 0);
  g.insert_task("after", "k", {}, [] {},
                {{b, rt::Access::ReadWrite}}, 0, 1);

  std::exception_ptr err;
  auto stats = run_any(exec(), workers(), g, &err);
  ASSERT_TRUE(err != nullptr) << exec_name(exec());
  EXPECT_THROW(std::rethrow_exception(err), ConformanceError);

  // The failing task's trace is end-stamped with a real duration.
  const auto& tr = stats.traces[1];
  ASSERT_EQ(tr.task, 1);
  EXPECT_GE(tr.end, tr.start);
  EXPECT_GT(tr.duration(), 0.0);
  EXPECT_GE(stats.compute_total, 0.0);

  // The rethrowing overload delivers the same typed error.
  EXPECT_THROW((void)run_any(exec(), workers(), g), ConformanceError);
}

TEST_P(ExecutorConformance, EmptyGraph) {
  rt::TaskGraph g;
  auto stats = run_any(exec(), workers(), g);
  EXPECT_EQ(stats.traces.size(), 0u);
  EXPECT_EQ(stats.wall_time, 0.0);
  EXPECT_EQ(stats.discovery_total, 0.0);
  EXPECT_EQ(stats.workers, workers());
  EXPECT_EQ(rt::validate_trace(g, stats), "");
}

TEST_P(ExecutorConformance, SingleTask) {
  rt::TaskGraph g;
  rt::DataId d = g.register_data("x");
  auto hits = std::make_shared<std::atomic<int>>(0);
  g.insert_task("only", "k", {}, [hits] { hits->fetch_add(1); },
                {{d, rt::Access::ReadWrite}});
  auto stats = run_any(exec(), workers(), g);
  EXPECT_EQ(hits->load(), 1);
  EXPECT_EQ(rt::validate_trace(g, stats), "");
}

TEST_P(ExecutorConformance, DiamondRespectsDependencyOrder) {
  rt::TaskGraph g;
  rt::DataId a = g.register_data("a"), b = g.register_data("b"),
             c = g.register_data("c");
  auto seq = std::make_shared<std::atomic<int>>(0);
  std::vector<int> order(4, -1);
  auto log = [seq, &order](int id) { order[static_cast<std::size_t>(id)] = seq->fetch_add(1); };
  g.insert_task("src", "k", {}, [&, log] { log(0); }, {{a, rt::Access::ReadWrite}}, 0, 0);
  g.insert_task("left", "k", {}, [&, log] { log(1); },
                {{a, rt::Access::Read}, {b, rt::Access::ReadWrite}}, 0, 1);
  g.insert_task("right", "k", {}, [&, log] { log(2); },
                {{a, rt::Access::Read}, {c, rt::Access::ReadWrite}}, 0, 1);
  g.insert_task("sink", "k", {}, [&, log] { log(3); },
                {{b, rt::Access::Read}, {c, rt::Access::Read}}, 0, 2);
  auto stats = run_any(exec(), workers(), g);
  EXPECT_EQ(rt::validate_trace(g, stats), "");
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[3], 3);
  EXPECT_GT(order[1], order[0]);
  EXPECT_GT(order[2], order[0]);
}

TEST_P(ExecutorConformance, TraceInvariants) {
  // Regression-proofing the new trace fields on a graph wide enough to keep
  // every worker busy: start <= end per task, discovery totals within the
  // wall-clock budget (validate_trace enforces both), per-worker streams
  // disjoint, and the per-worker discovery breakdown consistent.
  rt::TaskGraph g;
  std::vector<rt::DataId> chains;
  for (int c = 0; c < 8; ++c)
    chains.push_back(g.register_data("chain" + std::to_string(c)));
  for (int step = 0; step < 6; ++step)
    for (int c = 0; c < 8; ++c)
      g.insert_task("t", "k", {},
                    [] { std::this_thread::sleep_for(std::chrono::microseconds(200)); },
                    {{chains[static_cast<std::size_t>(c)], rt::Access::ReadWrite}},
                    0, step);
  auto stats = run_any(exec(), workers(), g);
  ASSERT_EQ(rt::validate_trace(g, stats), "");
  for (const auto& tr : stats.traces) EXPECT_LE(tr.start, tr.end);
  ASSERT_EQ(stats.worker_discovery.size(), static_cast<std::size_t>(workers()));
  EXPECT_GT(stats.discovery_total, 0.0);
  EXPECT_LE(stats.discovery_total, stats.wall_time * workers() + 1e-6);
  // critical_path_time is bounded by the wall clock (the executor cannot
  // run a chain faster than back-to-back).
  const double cp = rt::critical_path_time(g, stats);
  EXPECT_GT(cp, 0.0);
  EXPECT_LE(cp, stats.wall_time + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    AllExecutors, ExecutorConformance,
    ::testing::Combine(::testing::Values(0, 1, 2), ::testing::Values(1, 2, 4)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return std::string(exec_name(static_cast<Exec>(std::get<0>(info.param)))) +
             "_w" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace hatrix
