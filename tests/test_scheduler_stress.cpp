// Randomized DAG stress/property tests for the three executors.
//
// Seeded shape-fuzzed graphs — random task counts, random declared accesses
// over a random data-block pool, random cost dims — are first checked by the
// static DAG verifier (rt::verify_dag: the derived edges must order every
// conflicting access pair), then executed at worker counts {1, 2, 4, 8} on
// the fork-join, FIFO and priority executors. Properties asserted per run:
//
//   * every task executes exactly once,
//   * the observed execution sequence never violates a dependency edge —
//     in particular, priority-order scheduling may only reorder *ready*
//     tasks, never run a successor before its predecessor,
//   * the trace passes validate_trace (interval sanity, per-worker
//     disjointness, discovery-timer bounds).
//
// The suite runs under TSan in CI (label `concurrency`), which is the point:
// random shapes at 8 workers exercise the steal/release/idle-wakeup paths no
// hand-written DAG reaches.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "runtime/dag_dataflow.hpp"
#include "runtime/dag_verify.hpp"
#include "runtime/thread_pool_executor.hpp"
#include "runtime/trace.hpp"

namespace hatrix::rt {
namespace {

struct Shape {
  std::uint64_t seed;
  std::int64_t num_data;
  std::int64_t num_tasks;
  int num_phases;     // fork-join needs monotone phases; see build_random_dag
  int max_accesses;   // declared accesses per task (>= 1)
};

/// The execution record one stress run produces: a global sequence number
/// per task, stamped by whichever worker ran it.
struct ExecutionLog {
  std::atomic<std::int64_t> seq{0};
  std::vector<std::int64_t> order;  // order[t] = global sequence; -1 = not run

  explicit ExecutionLog(std::int64_t n)
      : order(static_cast<std::size_t>(n), -1) {}
};

/// Build a seeded random DAG. Tasks declare 1..max_accesses accesses over a
/// pool of num_data blocks (60% Read / 40% ReadWrite), so the graph derives
/// a random mix of RAW/WAR/WAW edges. The first access of every block is
/// forced to ReadWrite, so each handle has an in-graph def and the dataflow
/// analyzer (which the executors run in debug builds) finds no
/// use-before-def; blocks carry non-zero byte sizes for the same reason.
/// Phases are monotone non-decreasing in insertion order
/// (phase = i * num_phases / num_tasks), which is the fork-join executor's
/// structural requirement; dependency edges may still cross several phases
/// at once. Cost dims are random so the priority executor's bottom levels
/// are non-trivial.
void build_random_dag(const Shape& sh, TaskGraph& g, ExecutionLog& log) {
  Rng rng(sh.seed);
  std::vector<DataId> data;
  for (std::int64_t d = 0; d < sh.num_data; ++d)
    data.push_back(g.register_data("blk" + std::to_string(d), 64 + 8 * d));
  std::vector<char> written(static_cast<std::size_t>(sh.num_data), 0);

  for (std::int64_t i = 0; i < sh.num_tasks; ++i) {
    const int phase =
        static_cast<int>(i * sh.num_phases / sh.num_tasks);
    const int na = 1 + static_cast<int>(rng.index(sh.max_accesses));
    std::vector<TaskAccess> acc;
    for (int a = 0; a < na; ++a) {
      const std::int64_t di = rng.index(sh.num_data);
      const DataId d = data[static_cast<std::size_t>(di)];
      bool dup = false;
      for (const auto& [prev, mode] : acc) dup = dup || prev == d;
      if (dup) continue;  // one declaration per block per task
      const bool read = rng.uniform() < 0.6 &&
                        written[static_cast<std::size_t>(di)] != 0;
      acc.emplace_back(d, read ? Access::Read : Access::ReadWrite);
      if (!read) written[static_cast<std::size_t>(di)] = 1;
    }
    if (acc.empty()) {
      const std::int64_t di = rng.index(sh.num_data);
      acc.emplace_back(data[static_cast<std::size_t>(di)], Access::ReadWrite);
      written[static_cast<std::size_t>(di)] = 1;
    }
    std::vector<std::int64_t> dims{1 + rng.index(64), 1 + rng.index(64)};
    auto* lp = &log;
    g.insert_task("t" + std::to_string(i), "fuzz", std::move(dims),
                  [lp, i] {
                    lp->order[static_cast<std::size_t>(i)] =
                        lp->seq.fetch_add(1, std::memory_order_acq_rel);
                  },
                  std::move(acc), /*priority=*/0, phase);
  }
}

/// Assert the run's sequence respects every dependency edge and covered
/// every task exactly once (one closure per task writing its own slot —
/// a double execution would be a data race TSan flags, a missed one stays -1).
void check_order(const TaskGraph& g, const ExecutionLog& log,
                 const std::string& what) {
  ASSERT_EQ(log.seq.load(), g.num_tasks()) << what << ": task count mismatch";
  const auto& order = log.order;
  for (std::size_t t = 0; t < order.size(); ++t)
    ASSERT_GE(order[t], 0) << what << ": task " << t << " never ran";
  for (std::size_t t = 0; t < order.size(); ++t)
    for (TaskId s : g.successors()[t])
      ASSERT_LT(order[t], order[static_cast<std::size_t>(s)])
          << what << ": edge " << t << " -> " << s << " violated";
}

const Shape kShapes[] = {
    // seed, data, tasks, phases, max_accesses
    {11, 6, 80, 4, 3},     // small pool: dense conflict chains
    {23, 24, 250, 6, 4},   // medium, mixed fan-out
    {37, 64, 400, 8, 3},   // wide: lots of concurrent ready tasks
    {53, 3, 120, 2, 2},    // tiny pool: near-serial WAW chains, high contention
};

class SchedulerStress : public ::testing::TestWithParam<int> {
 protected:
  [[nodiscard]] int workers() const { return GetParam(); }
};

TEST_P(SchedulerStress, ForkJoinRandomDags) {
  for (const Shape& sh : kShapes) {
    TaskGraph g;
    ExecutionLog log(sh.num_tasks);
    build_random_dag(sh, g, log);
    ASSERT_NO_THROW((void)verify_dag(g)) << "seed " << sh.seed;
    ThreadPoolExecutor ex(workers(), Schedule::Phased);
    auto stats = ex.run(g);
    ASSERT_EQ(validate_trace(g, stats), "") << "seed " << sh.seed;
    check_order(g, log, "forkjoin seed " + std::to_string(sh.seed));
  }
}

TEST_P(SchedulerStress, FifoRandomDags) {
  for (const Shape& sh : kShapes) {
    TaskGraph g;
    ExecutionLog log(sh.num_tasks);
    build_random_dag(sh, g, log);
    ASSERT_NO_THROW((void)verify_dag(g)) << "seed " << sh.seed;
    ThreadPoolExecutor ex(workers());
    auto stats = ex.run(g);
    ASSERT_EQ(validate_trace(g, stats), "") << "seed " << sh.seed;
    check_order(g, log, "fifo seed " + std::to_string(sh.seed));
  }
}

TEST_P(SchedulerStress, PriorityRandomDags) {
  for (const Shape& sh : kShapes) {
    TaskGraph g;
    ExecutionLog log(sh.num_tasks);
    build_random_dag(sh, g, log);
    ASSERT_NO_THROW((void)verify_dag(g)) << "seed " << sh.seed;
    ThreadPoolExecutor ex(workers(), Schedule::CriticalPath);
    auto stats = ex.run(g);
    ASSERT_EQ(validate_trace(g, stats), "") << "seed " << sh.seed;
    check_order(g, log, "priority seed " + std::to_string(sh.seed));
    // The discovery timer must account for the up-front bottom-level
    // computation without exceeding the wall budget.
    EXPECT_GT(stats.discovery_total, 0.0);
    EXPECT_LE(stats.discovery_total, stats.wall_time * workers() + 1e-6);
  }
}

TEST_P(SchedulerStress, PriorityWithCostHookStillHonorsDependencies) {
  // An adversarial cost function (later tasks look maximally urgent) can
  // reorder ready tasks arbitrarily but must never reorder a dependency.
  const Shape sh{71, 10, 200, 5, 3};
  TaskGraph g;
  ExecutionLog log(sh.num_tasks);
  build_random_dag(sh, g, log);
  ThreadPoolExecutor ex(workers(), Schedule::CriticalPath);
  ex.set_cost([](const Task& t) { return static_cast<double>(t.id * t.id); });
  auto stats = ex.run(g);
  ASSERT_EQ(validate_trace(g, stats), "");
  check_order(g, log, "priority adversarial-cost");
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, SchedulerStress,
                         ::testing::Values(1, 2, 4, 8));

TEST(AnalyzerFuzz, DroppedAccessFlagsExactTaskAndResource) {
  // Satellite of the dataflow analyzer: reuse the random-DAG generator,
  // delete ONE declared access from an otherwise-clean graph, and require
  // the analyzer to name exactly the seeded task/resource pair —
  //   * dropping a handle's def turns its first reader into a use-before-def;
  //   * dropping the sole read of a single-writer handle turns that writer
  //     into a dead store.
  int def_drops = 0;
  int read_drops = 0;
  for (std::uint64_t seed = 200; seed < 216; ++seed) {
    const Shape sh{seed, 10, 120, 4, 3};

    // Reconstruct the per-handle access chains from an intact copy.
    TaskGraph probe;
    ExecutionLog plog(sh.num_tasks);
    build_random_dag(sh, probe, plog);
    std::vector<std::vector<std::pair<TaskId, Access>>> ev(probe.data().size());
    for (const auto& t : probe.tasks())
      for (const auto& [d, m] : t.accesses)
        ev[static_cast<std::size_t>(d)].push_back({t.id, m});
    ASSERT_NO_THROW((void)analyze_dag(probe)) << "seed " << seed;

    // Mutation A: drop the def of a handle whose next accessor is a pure
    // Read; the analyzer must blame that reader for that handle.
    for (std::size_t d = 0; d < ev.size(); ++d) {
      const auto& ch = ev[d];
      if (ch.size() < 2 || !is_write(ch[0].second) ||
          ch[1].second != Access::Read)
        continue;
      TaskGraph g;
      ExecutionLog log(sh.num_tasks);
      build_random_dag(sh, g, log);
      ASSERT_TRUE(g.drop_access_for_test(ch[0].first, static_cast<DataId>(d)));
      try {
        (void)analyze_dag(g);
        FAIL() << "seed " << seed << ": dropped def of blk" << d
               << " not flagged";
      } catch (const DagUseBeforeDefError& e) {
        EXPECT_EQ(e.task, ch[1].first) << "seed " << seed;
        EXPECT_EQ(e.resource, static_cast<DataId>(d)) << "seed " << seed;
      }
      ++def_drops;
      break;
    }

    // Mutation B: drop the sole read of a write-once handle; the analyzer
    // must report its writer as a dead store on that handle. A sparse shape
    // (more blocks than accesses) makes write-then-single-read chains common.
    const Shape shb{seed + 1000, 40, 30, 4, 2};
    TaskGraph probe_b;
    ExecutionLog plog_b(shb.num_tasks);
    build_random_dag(shb, probe_b, plog_b);
    std::vector<std::vector<std::pair<TaskId, Access>>> evb(
        probe_b.data().size());
    for (const auto& t : probe_b.tasks())
      for (const auto& [d, m] : t.accesses)
        evb[static_cast<std::size_t>(d)].push_back({t.id, m});
    for (std::size_t d = 0; d < evb.size(); ++d) {
      const auto& ch = evb[d];
      if (ch.size() != 2 || !is_write(ch[0].second) ||
          ch[1].second != Access::Read)
        continue;
      TaskGraph g;
      ExecutionLog log(shb.num_tasks);
      build_random_dag(shb, g, log);
      ASSERT_TRUE(g.drop_access_for_test(ch[1].first, static_cast<DataId>(d)));
      DagDataflowReport rep = analyze_dag(g);
      bool found = false;
      for (const auto& w : rep.warnings)
        found = found || (w.kind == DagWarningKind::DeadStore &&
                          w.task == ch[0].first &&
                          w.resource == static_cast<DataId>(d));
      EXPECT_TRUE(found) << "seed " << seed << ": dead store on blk" << d
                         << " not flagged";
      ++read_drops;
      break;
    }
  }
  // The seed range must actually exercise both mutations.
  EXPECT_GT(def_drops, 4);
  EXPECT_GT(read_drops, 4);
}

TEST(SchedulerStressRepeats, PriorityManySeedsAtEightWorkers) {
  // Extra seeds at the highest worker count: the steal path and idle
  // wake-ups depend on timing, so give TSan more schedules to explore.
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    const Shape sh{seed, 12, 150, 4, 3};
    TaskGraph g;
    ExecutionLog log(sh.num_tasks);
    build_random_dag(sh, g, log);
    ThreadPoolExecutor ex(8, Schedule::CriticalPath);
    auto stats = ex.run(g);
    ASSERT_EQ(validate_trace(g, stats), "") << "seed " << seed;
    check_order(g, log, "priority seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace hatrix::rt
