#pragma once
/// \file dag_verify.hpp
/// \brief Static race & ordering verifier for task DAGs.
///
/// Every correctness property of the task-based pipeline hinges on the DAG
/// edges being *complete*: a missing TRANSFER→MERGE edge would only surface
/// as a flaky TSan hit on a machine with enough cores to actually hit the
/// window. Jacquelin et al.'s fan-both solver and Lacoste et al.'s
/// task-based PaStiX (PAPERS.md) drive their schedulers from declared
/// per-task data access; we reuse the same declarations (rt::TaskAccess) to
/// verify our graphs statically, before a single thread runs:
///
///  1. structural checks — self-dependencies, dangling successor ids,
///     corrupted in-degree bookkeeping, and cycles are rejected with a
///     typed DagStructureError;
///  2. race detection — reachability is computed over the whole DAG and
///     every pair of tasks with conflicting accesses (W/W or R/W on the
///     same resource) that is NOT ordered by a dependency path raises a
///     typed DagRaceError naming the two tasks and the resource;
///  3. width / critical-path statistics fall out as a by-product.
///
/// Executors run the verifier before execution in debug/verify mode (see
/// ThreadPoolExecutor::set_verify_dag), and the DAG-running benches and
/// examples expose it behind `--verify-dag`.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "runtime/task_graph.hpp"

namespace hatrix::rt {

/// Per-task cost callback for weighted critical-path statistics and the
/// ready key of Schedule::CriticalPath (ThreadPoolExecutor::set_cost).
/// Returns the (relative) cost of one task — flops, seconds, any consistent
/// unit. The runtime layer deliberately has no opinion on the unit; distsim::CostModel::task_flops is the flop-true
/// implementation the benches plug in.
using TaskCostFn = std::function<double(const Task&)>;

/// Structural statistics of a verified DAG (verify_dag's by-product).
struct DagStats {
  std::int64_t tasks = 0;          ///< number of tasks
  std::int64_t edges = 0;          ///< number of dependency edges
  std::int64_t critical_path = 0;  ///< longest chain, in tasks (unit cost)
  std::int64_t max_width = 0;      ///< widest depth level (peak task parallelism)
  double avg_width = 0.0;          ///< tasks / critical_path (mean parallelism)
  // Filled by analyze_dag (dag_dataflow.hpp); verify_dag leaves them 0.
  std::int64_t data_bytes = 0;        ///< total bytes of touched data handles
  std::int64_t peak_bytes_serial = 0; ///< exact peak along insertion order
  std::int64_t peak_bytes_any = 0;    ///< bound over any edge-consistent schedule
};

/// A task graph whose structure is malformed: a self-dependency, a dangling
/// successor id, in-degree bookkeeping that disagrees with the edge lists,
/// or a dependency cycle.
class DagStructureError : public Error {
 public:
  using Error::Error;
};

/// Two tasks with conflicting declared accesses (W/W or R/W) on the same
/// resource and no dependency path ordering them — a data race the runtime
/// would be free to schedule concurrently.
class DagRaceError : public Error {
 public:
  /// Build the error from the two unordered tasks and the shared resource.
  DagRaceError(TaskId task_a, std::string task_a_name, TaskId task_b,
               std::string task_b_name, DataId resource,
               std::string resource_name);

  TaskId task_a = -1;          ///< first (earlier-inserted) conflicting task
  TaskId task_b = -1;          ///< second conflicting task
  DataId resource = -1;        ///< the resource both tasks touch
  std::string task_a_name;     ///< display name of task_a
  std::string task_b_name;     ///< display name of task_b
  std::string resource_name;   ///< display name of the resource
};

/// Statically verify `graph`: throws DagStructureError on malformed
/// structure and DagRaceError on the first unordered conflicting task pair;
/// returns the DAG statistics otherwise. Cost is O(V + E) for the
/// structural pass plus O(E·V/64) bit-parallel reachability for the race
/// check — a few milliseconds for the multi-thousand-task production DAGs.
DagStats verify_dag(const TaskGraph& graph);

/// Cost-weighted bottom level of every task: bl[t] = cost(t) plus the most
/// expensive downstream dependency chain. The bottom level is the classical
/// critical-path priority — a task whose subtree carries more remaining work
/// gets a larger value, so a scheduler draining highest-bottom-level-first
/// follows the cost-weighted critical path (top-of-tree ULV tasks win over
/// wide cheap leaves). Assumes insertion order is topological, which
/// TaskGraph::insert_task guarantees; edges spliced backwards by the
/// test-only mutators are ignored.
std::vector<double> bottom_levels(const TaskGraph& graph, const TaskCostFn& cost);

/// Default verify-before-run policy for executors: the HATRIX_VERIFY_DAG
/// environment variable forces it on ("1"/"true"/"on") or off ("0" etc.);
/// with the variable unset, verification defaults to on in debug builds
/// (NDEBUG not defined) and off in release builds.
bool verify_dag_default();

}  // namespace hatrix::rt
