// Tests for the DTD task graph (dependency inference), the executor under
// its Fifo, Phased and CriticalPath schedules, and trace validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <thread>

#include "runtime/dag_verify.hpp"
#include "runtime/task_graph.hpp"
#include "runtime/thread_pool_executor.hpp"
#include "runtime/trace.hpp"

namespace hatrix::rt {
namespace {

TEST(TaskGraph, ReadAfterWriteEdge) {
  TaskGraph g;
  DataId d = g.register_data("x");
  TaskId w = g.insert_task("w", "k", {}, {}, {{d, Access::ReadWrite}});
  TaskId r = g.insert_task("r", "k", {}, {}, {{d, Access::Read}});
  ASSERT_EQ(g.successors()[static_cast<std::size_t>(w)].size(), 1u);
  EXPECT_EQ(g.successors()[static_cast<std::size_t>(w)][0], r);
  EXPECT_EQ(g.in_degree()[static_cast<std::size_t>(r)], 1);
}

TEST(TaskGraph, WriteAfterReadEdge) {
  TaskGraph g;
  DataId d = g.register_data("x");
  TaskId r1 = g.insert_task("r1", "k", {}, {}, {{d, Access::Read}});
  TaskId r2 = g.insert_task("r2", "k", {}, {}, {{d, Access::Read}});
  TaskId w = g.insert_task("w", "k", {}, {}, {{d, Access::ReadWrite}});
  // Both readers must precede the writer; the readers are unordered.
  std::set<TaskId> preds;
  for (std::size_t t = 0; t < 2; ++t)
    for (TaskId s : g.successors()[t]) preds.insert(s);
  EXPECT_EQ(preds, std::set<TaskId>{w});
  EXPECT_EQ(g.in_degree()[static_cast<std::size_t>(w)], 2);
  EXPECT_EQ(g.in_degree()[static_cast<std::size_t>(r1)], 0);
  EXPECT_EQ(g.in_degree()[static_cast<std::size_t>(r2)], 0);
}

TEST(TaskGraph, WriteAfterWriteChain) {
  TaskGraph g;
  DataId d = g.register_data("x");
  TaskId w1 = g.insert_task("w1", "k", {}, {}, {{d, Access::ReadWrite}});
  TaskId w2 = g.insert_task("w2", "k", {}, {}, {{d, Access::ReadWrite}});
  TaskId w3 = g.insert_task("w3", "k", {}, {}, {{d, Access::ReadWrite}});
  EXPECT_EQ(g.successors()[static_cast<std::size_t>(w1)],
            std::vector<TaskId>{w2});
  EXPECT_EQ(g.successors()[static_cast<std::size_t>(w2)],
            std::vector<TaskId>{w3});
}

TEST(TaskGraph, ReadersAfterWriteClearOnNextWrite) {
  TaskGraph g;
  DataId d = g.register_data("x");
  g.insert_task("w1", "k", {}, {}, {{d, Access::ReadWrite}});
  TaskId r = g.insert_task("r", "k", {}, {}, {{d, Access::Read}});
  TaskId w2 = g.insert_task("w2", "k", {}, {}, {{d, Access::ReadWrite}});
  TaskId r2 = g.insert_task("r2", "k", {}, {}, {{d, Access::Read}});
  // r2 depends on w2 only; r's edge goes to w2.
  EXPECT_EQ(g.in_degree()[static_cast<std::size_t>(r2)], 1);
  EXPECT_EQ(g.successors()[static_cast<std::size_t>(r)], std::vector<TaskId>{w2});
}

TEST(TaskGraph, EdgesDeduplicated) {
  TaskGraph g;
  DataId d1 = g.register_data("a");
  DataId d2 = g.register_data("b");
  TaskId w = g.insert_task("w", "k", {}, {},
                           {{d1, Access::ReadWrite}, {d2, Access::ReadWrite}});
  TaskId r = g.insert_task("r", "k", {}, {},
                           {{d1, Access::Read}, {d2, Access::Read}});
  EXPECT_EQ(g.successors()[static_cast<std::size_t>(w)].size(), 1u);
  EXPECT_EQ(g.in_degree()[static_cast<std::size_t>(r)], 1);
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(TaskGraph, CriticalPathLength) {
  TaskGraph g;
  DataId d = g.register_data("x");
  DataId e = g.register_data("y");
  g.insert_task("w1", "k", {}, {}, {{d, Access::ReadWrite}});
  g.insert_task("w2", "k", {}, {}, {{d, Access::ReadWrite}});
  g.insert_task("w3", "k", {}, {}, {{d, Access::ReadWrite}});
  g.insert_task("solo", "k", {}, {}, {{e, Access::ReadWrite}});
  EXPECT_EQ(g.critical_path_length(), 3);
}

TEST(TaskGraph, RejectsUnregisteredData) {
  TaskGraph g;
  EXPECT_THROW(g.insert_task("bad", "k", {}, {}, {{7, Access::Read}}), Error);
}

class Executors : public ::testing::TestWithParam<int> {};

TEST_P(Executors, RunsEveryTaskOnceRespectingDeps) {
  const int workers = GetParam();
  TaskGraph g;
  // Chain of accumulating writes: order-sensitive result.
  DataId d = g.register_data("acc");
  auto value = std::make_shared<std::atomic<long>>(0);
  for (int i = 1; i <= 20; ++i) {
    g.insert_task("mul_add" + std::to_string(i), "k", {},
                  [value, i] { value->store(value->load() * 2 + i); },
                  {{d, Access::ReadWrite}});
  }
  ThreadPoolExecutor ex(workers);
  auto stats = ex.run(g);
  // Sequential reference.
  long ref = 0;
  for (int i = 1; i <= 20; ++i) ref = ref * 2 + i;
  EXPECT_EQ(value->load(), ref);
  EXPECT_EQ(validate_trace(g, stats), "");
  EXPECT_EQ(stats.workers, workers);
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, Executors, ::testing::Values(1, 2, 4));

TEST(ThreadPoolExecutor, IndependentTasksAllRun) {
  TaskGraph g;
  auto counter = std::make_shared<std::atomic<int>>(0);
  for (int i = 0; i < 100; ++i) {
    DataId d = g.register_data("d" + std::to_string(i));
    g.insert_task("t" + std::to_string(i), "k", {},
                  [counter] { counter->fetch_add(1); }, {{d, Access::ReadWrite}});
  }
  ThreadPoolExecutor ex(4);
  auto stats = ex.run(g);
  EXPECT_EQ(counter->load(), 100);
  EXPECT_EQ(validate_trace(g, stats), "");
}

TEST(ThreadPoolExecutor, DiamondDependency) {
  TaskGraph g;
  DataId a = g.register_data("a"), b = g.register_data("b"),
         c = g.register_data("c");
  std::vector<int> order;
  std::mutex mu;
  auto log = [&](int id) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(id);
  };
  g.insert_task("src", "k", {}, [&] { log(0); }, {{a, Access::ReadWrite}});
  g.insert_task("left", "k", {}, [&] { log(1); },
                {{a, Access::Read}, {b, Access::ReadWrite}});
  g.insert_task("right", "k", {}, [&] { log(2); },
                {{a, Access::Read}, {c, Access::ReadWrite}});
  g.insert_task("sink", "k", {}, [&] { log(3); },
                {{b, Access::Read}, {c, Access::Read}});
  ThreadPoolExecutor ex(2);
  auto stats = ex.run(g);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), 0);
  EXPECT_EQ(order.back(), 3);
  EXPECT_EQ(validate_trace(g, stats), "");
}

TEST(ThreadPoolExecutor, PropagatesTaskExceptions) {
  TaskGraph g;
  DataId d = g.register_data("x");
  g.insert_task("boom", "k", {}, [] { throw Error("boom"); },
                {{d, Access::ReadWrite}});
  ThreadPoolExecutor ex(2);
  EXPECT_THROW((void)ex.run(g), Error);
}

TEST(ThreadPoolExecutor, ThrowingTaskStillGetsEndStamped) {
  // Regression: the exception path used to return without stamping the
  // failing task's trace.end, leaving a negative duration that poisoned the
  // compute/overhead accounting. error_out lets the caller observe the
  // statistics instead of losing them to the rethrow.
  TaskGraph g;
  DataId d = g.register_data("x");
  g.insert_task("slow_boom", "k", {},
                [] {
                  std::this_thread::sleep_for(std::chrono::milliseconds(5));
                  throw Error("boom");
                },
                {{d, Access::ReadWrite}});
  ThreadPoolExecutor ex(1);
  std::exception_ptr err;
  auto stats = ex.run(g, &err);
  ASSERT_TRUE(err != nullptr);
  EXPECT_THROW(std::rethrow_exception(err), Error);
  ASSERT_EQ(stats.traces.size(), 1u);
  const auto& tr = stats.traces[0];
  EXPECT_GE(tr.end, tr.start);
  EXPECT_GT(tr.duration(), 0.0);
  EXPECT_GT(stats.wall_time, 0.0);
  EXPECT_GE(stats.compute_total, 0.0);
}

TEST(ThreadPoolExecutor, EmptyGraph) {
  TaskGraph g;
  ThreadPoolExecutor ex(2);
  auto stats = ex.run(g);
  EXPECT_EQ(stats.traces.size(), 0u);
  EXPECT_EQ(stats.wall_time, 0.0);
}

TEST(ThreadPoolExecutor, PriorityOrderWithSingleWorker) {
  TaskGraph g;
  std::vector<int> order;
  // All independent; single worker must drain by priority.
  for (int i = 0; i < 5; ++i) {
    DataId d = g.register_data("d" + std::to_string(i));
    Task t;
    t.name = "t" + std::to_string(i);
    t.kind = "k";
    t.work = [&order, i] { order.push_back(i); };
    t.accesses = {{d, Access::ReadWrite}};
    t.priority = i;  // later tasks have higher priority
    g.insert_task(std::move(t));
  }
  ThreadPoolExecutor ex(1);
  (void)ex.run(g);
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order.front(), 4);  // highest priority first
}

TEST(ForkJoinExecutor, BarrierBetweenPhases) {
  TaskGraph g;
  std::atomic<int> phase0_done{0};
  std::atomic<bool> violated{false};
  for (int i = 0; i < 8; ++i) {
    DataId d = g.register_data("a" + std::to_string(i));
    Task t;
    t.name = "p0_" + std::to_string(i);
    t.kind = "k";
    t.work = [&phase0_done] { phase0_done.fetch_add(1); };
    t.accesses = {{d, Access::ReadWrite}};
    t.phase = 0;
    g.insert_task(std::move(t));
  }
  for (int i = 0; i < 8; ++i) {
    DataId d = g.register_data("b" + std::to_string(i));
    Task t;
    t.name = "p1_" + std::to_string(i);
    t.kind = "k";
    t.work = [&phase0_done, &violated] {
      if (phase0_done.load() != 8) violated.store(true);
    };
    t.accesses = {{d, Access::ReadWrite}};
    t.phase = 1;
    g.insert_task(std::move(t));
  }
  ThreadPoolExecutor ex(4, Schedule::Phased);
  auto stats = ex.run(g);
  EXPECT_FALSE(violated.load());
  EXPECT_EQ(validate_trace(g, stats), "");

  // Independent tasks whose phases arrive out of order, non-contiguous and
  // partly negative: the barriers follow the phase values, not insertion
  // order, so every task starts no earlier than every lower-phase task ended.
  const int phases[] = {7, -2, 3, -2, 7, 3, 7, -2, 3, 7};
  for (int workers : {1, 4}) {
    TaskGraph h;
    for (int p : phases) {
      DataId d = h.register_data("c" + std::to_string(h.num_tasks()));
      Task t;
      t.name = "q" + std::to_string(p);
      t.kind = "k";
      t.work = [] { std::this_thread::sleep_for(std::chrono::microseconds(200)); };
      t.accesses = {{d, Access::ReadWrite}};
      t.phase = p;
      h.insert_task(std::move(t));
    }
    ThreadPoolExecutor phased(workers, Schedule::Phased);
    auto hs = phased.run(h);
    ASSERT_EQ(validate_trace(h, hs), "") << workers;
    for (const Task& a : h.tasks())
      for (const Task& b : h.tasks())
        if (a.phase < b.phase) {
          EXPECT_GE(hs.traces[static_cast<std::size_t>(b.id)].start,
                    hs.traces[static_cast<std::size_t>(a.id)].end)
              << a.name << " -> " << b.name << " at " << workers << " workers";
        }
  }
}

TEST(ForkJoinExecutor, RejectsBackwardPhaseEdges) {
  TaskGraph g;
  DataId d = g.register_data("x");
  Task t1;
  t1.name = "late";
  t1.kind = "k";
  t1.accesses = {{d, Access::ReadWrite}};
  t1.phase = 1;
  g.insert_task(std::move(t1));
  Task t2;
  t2.name = "early";
  t2.kind = "k";
  t2.accesses = {{d, Access::Read}};  // depends on phase-1 task
  t2.phase = 0;
  g.insert_task(std::move(t2));
  ThreadPoolExecutor ex(1, Schedule::Phased);
  EXPECT_THROW((void)ex.run(g), Error);
}

TEST(TaskGraph, CriticalPathMemoizationSurvivesMutation) {
  // Every edge-set mutation — another insert_task or the test-only edge
  // surgery — shows in the next critical_path_length() query; a query never
  // returns a stale length.
  TaskGraph g;
  DataId d = g.register_data("x");
  TaskId w1 = g.insert_task("w1", "k", {}, {}, {{d, Access::ReadWrite}});
  TaskId w2 = g.insert_task("w2", "k", {}, {}, {{d, Access::ReadWrite}});
  EXPECT_EQ(g.critical_path_length(), 2);
  EXPECT_EQ(g.critical_path_length(), 2);  // repeated query

  g.insert_task("w3", "k", {}, {}, {{d, Access::ReadWrite}});
  EXPECT_EQ(g.critical_path_length(), 3);  // the insert extends the chain

  ASSERT_TRUE(g.drop_dependency_for_test(w1, w2));
  EXPECT_EQ(g.critical_path_length(), 2);  // w2 -> w3 is now the longest chain

  g.add_dependency_for_test(w1, w2);
  EXPECT_EQ(g.critical_path_length(), 3);  // spliced edge restores the chain

  // A failed drop removes no edge and changes nothing.
  EXPECT_FALSE(g.drop_dependency_for_test(w2, w1));
  EXPECT_EQ(g.critical_path_length(), 3);
}

TEST(DagCosts, BottomLevelsWeightChains) {
  // d-chain: a(5) -> b(1) -> c(2); solo task on e with cost 100.
  TaskGraph g;
  DataId d = g.register_data("x");
  DataId e = g.register_data("y");
  g.insert_task("a", "k", {5}, {}, {{d, Access::ReadWrite}});
  g.insert_task("b", "k", {1}, {}, {{d, Access::ReadWrite}});
  g.insert_task("c", "k", {2}, {}, {{d, Access::ReadWrite}});
  g.insert_task("solo", "k", {100}, {}, {{e, Access::ReadWrite}});
  auto cost = [](const Task& t) { return static_cast<double>(t.dims[0]); };
  auto bl = bottom_levels(g, cost);
  ASSERT_EQ(bl.size(), 4u);
  EXPECT_DOUBLE_EQ(bl[0], 8.0);  // 5 + 1 + 2
  EXPECT_DOUBLE_EQ(bl[1], 3.0);
  EXPECT_DOUBLE_EQ(bl[2], 2.0);
  EXPECT_DOUBLE_EQ(bl[3], 100.0);
  // The weighted critical path (the largest bottom level) is the heaviest
  // chain, not the longest one.
  EXPECT_DOUBLE_EQ(*std::max_element(bl.begin(), bl.end()), 100.0);
  EXPECT_EQ(g.critical_path_length(), 3);  // unit-cost view still the d-chain
}

TEST(PriorityExecutor, RunsOrderSensitiveChain) {
  TaskGraph g;
  DataId d = g.register_data("acc");
  auto value = std::make_shared<std::atomic<long>>(0);
  for (int i = 1; i <= 20; ++i)
    g.insert_task("mul_add" + std::to_string(i), "k", {},
                  [value, i] { value->store(value->load() * 2 + i); },
                  {{d, Access::ReadWrite}});
  ThreadPoolExecutor ex(4, Schedule::CriticalPath);
  auto stats = ex.run(g);
  long ref = 0;
  for (int i = 1; i <= 20; ++i) ref = ref * 2 + i;
  EXPECT_EQ(value->load(), ref);
  EXPECT_EQ(validate_trace(g, stats), "");
  EXPECT_EQ(stats.workers, 4);
}

TEST(PriorityExecutor, SingleWorkerDrainsByBottomLevel) {
  // Two independent chains; the heavy chain's head has the larger bottom
  // level, so a single worker must run the whole heavy chain first.
  TaskGraph g;
  DataId heavy = g.register_data("heavy");
  DataId light = g.register_data("light");
  std::vector<int> order;
  auto log = [&order](int id) { order.push_back(id); };
  g.insert_task("light0", "k", {2}, [&, log] { log(10); },
                {{light, Access::ReadWrite}});
  g.insert_task("heavy0", "k", {50}, [&, log] { log(0); },
                {{heavy, Access::ReadWrite}});
  g.insert_task("heavy1", "k", {50}, [&, log] { log(1); },
                {{heavy, Access::ReadWrite}});
  g.insert_task("light1", "k", {2}, [&, log] { log(11); },
                {{light, Access::ReadWrite}});
  ThreadPoolExecutor ex(1, Schedule::CriticalPath);
  (void)ex.run(g);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(order[2], 10);
  EXPECT_EQ(order[3], 11);
}

TEST(PriorityExecutor, CostHookOverridesDefault) {
  // Invert the urgency: make the "light" chain expensive via set_cost.
  TaskGraph g;
  DataId a = g.register_data("a");
  DataId b = g.register_data("b");
  std::vector<int> order;
  auto log = [&order](int id) { order.push_back(id); };
  g.insert_task("a0", "small", {100}, [&, log] { log(0); },
                {{a, Access::ReadWrite}});
  g.insert_task("b0", "big", {1}, [&, log] { log(1); },
                {{b, Access::ReadWrite}});
  ThreadPoolExecutor ex(1, Schedule::CriticalPath);
  ex.set_cost([](const Task& t) { return t.kind == "big" ? 1e6 : 1.0; });
  (void)ex.run(g);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);  // "big" kind outranks the larger dims
}

TEST(PriorityExecutor, PropagatesTaskExceptionsWithEndStamp) {
  TaskGraph g;
  DataId d = g.register_data("x");
  g.insert_task("slow_boom", "k", {},
                [] {
                  std::this_thread::sleep_for(std::chrono::milliseconds(5));
                  throw Error("boom");
                },
                {{d, Access::ReadWrite}});
  ThreadPoolExecutor ex(2, Schedule::CriticalPath);
  std::exception_ptr err;
  auto stats = ex.run(g, &err);
  ASSERT_TRUE(err != nullptr);
  EXPECT_THROW(std::rethrow_exception(err), Error);
  ASSERT_EQ(stats.traces.size(), 1u);
  EXPECT_GE(stats.traces[0].end, stats.traces[0].start);
  EXPECT_GT(stats.traces[0].duration(), 0.0);
}

TEST(PriorityExecutor, VerifyDagGateRejectsRacyGraph) {
  TaskGraph g;
  DataId d = g.register_data("x");
  TaskId w1 = g.insert_task("w1", "k", {}, [] {}, {{d, Access::ReadWrite}});
  TaskId w2 = g.insert_task("w2", "k", {}, [] {}, {{d, Access::ReadWrite}});
  ASSERT_TRUE(g.drop_dependency_for_test(w1, w2));
  ThreadPoolExecutor ex(2, Schedule::CriticalPath);
  ex.set_verify_dag(true);
  EXPECT_THROW((void)ex.run(g), DagRaceError);
  // With the gate off the (racy but acyclic) graph still executes.
  ex.set_verify_dag(false);
  auto stats = ex.run(g);
  EXPECT_EQ(stats.traces.size(), 2u);
}

TEST(Stats, DiscoveryTimerWithinBoundsOnAllExecutors) {
  auto make = [](TaskGraph& g) {
    DataId d = g.register_data("x");
    for (int i = 0; i < 12; ++i)
      g.insert_task("t" + std::to_string(i), "k", {},
                    [] { std::this_thread::sleep_for(std::chrono::microseconds(100)); },
                    {{d, Access::ReadWrite}}, 0, i / 4);
  };
  auto check = [](const TaskGraph& g, const ExecutionStats& stats, int workers) {
    EXPECT_EQ(validate_trace(g, stats), "");
    ASSERT_EQ(stats.worker_discovery.size(), static_cast<std::size_t>(workers));
    double sum = 0.0;
    for (double w : stats.worker_discovery) {
      EXPECT_GE(w, 0.0);
      sum += w;
    }
    EXPECT_NEAR(stats.discovery_total, sum, 1e-9);
    EXPECT_LE(stats.discovery_total, stats.wall_time * workers + 1e-6);
    EXPECT_GE(stats.discovery_share(), 0.0);
    EXPECT_LE(stats.discovery_share(), 1.0 + 1e-9);
  };
  {
    TaskGraph g;
    make(g);
    ThreadPoolExecutor ex(2);
    check(g, ex.run(g), 2);
  }
  {
    TaskGraph g;
    make(g);
    ThreadPoolExecutor ex(2, Schedule::Phased);
    check(g, ex.run(g), 2);
  }
  {
    TaskGraph g;
    make(g);
    ThreadPoolExecutor ex(2, Schedule::CriticalPath);
    check(g, ex.run(g), 2);
  }
}

TEST(Stats, CriticalPathTimeBoundedByWall) {
  TaskGraph g;
  DataId d = g.register_data("x");
  for (int i = 0; i < 5; ++i)
    g.insert_task("t" + std::to_string(i), "k", {},
                  [] { std::this_thread::sleep_for(std::chrono::microseconds(200)); },
                  {{d, Access::ReadWrite}});
  ThreadPoolExecutor ex(2);
  auto stats = ex.run(g);
  const double cp = critical_path_time(g, stats);
  // A pure chain: the duration-weighted critical path is the whole compute.
  EXPECT_NEAR(cp, stats.compute_total, 1e-9);
  EXPECT_LE(cp, stats.wall_time + 1e-6);
}

TEST(Stats, OverheadIsWallMinusCompute) {
  TaskGraph g;
  DataId d = g.register_data("x");
  g.insert_task("t", "k", {}, [] {}, {{d, Access::ReadWrite}});
  ThreadPoolExecutor ex(3);
  auto stats = ex.run(g);
  EXPECT_NEAR(stats.overhead_total,
              stats.wall_time * 3 - stats.compute_total, 1e-12);
  EXPECT_GE(stats.overhead_per_worker(), 0.0);
}

}  // namespace
}  // namespace hatrix::rt
