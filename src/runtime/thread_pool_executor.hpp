#pragma once
/// \file thread_pool_executor.hpp
/// \brief The task-graph executor and its three scheduling models.
///
/// Worker threads drain ready tasks; finishing a task releases its
/// successors as soon as their last dependency clears. The Schedule picks
/// the paper's runtime comparison axis (Sec. 4.2, Sec. 5.2) without a
/// second executor: Fifo is the PaRSEC-DTD model with no barriers anywhere,
/// which is what lets HATRIX-DTD start a parent HSS level before the child
/// level has fully finished; Phased is the STRUMPACK model with a barrier
/// between `phase` groups; CriticalPath orders ready tasks by cost-weighted
/// bottom level and work-steals between per-worker heaps.

#include <exception>

#include "runtime/dag_verify.hpp"
#include "runtime/task_graph.hpp"
#include "runtime/trace.hpp"

namespace hatrix::rt {

/// How the executor picks among ready tasks.
enum class Schedule {
  /// One shared ready heap: higher Task::priority first, then insertion
  /// order (FIFO within a priority class keeps execution close to the DTD
  /// submission order, like PaRSEC's default scheduler). No barriers.
  Fifo,
  /// Per-worker ready heaps keyed by cost-weighted bottom level
  /// (rt::bottom_levels under the cost hook, see set_cost); successors go
  /// to the finishing worker's heap and an idle worker steals the victim's
  /// *best* task, which keeps the critical path (in HSS-ULV: the
  /// top-of-tree merge/factor chain) moving while leaf-level parallelism
  /// fills the other workers. Li & Liu (PAPERS.md) name that serialized
  /// top-of-tree the bottleneck this ordering attacks.
  CriticalPath,
  /// Fifo order plus a barrier between phases: no task of a phase starts
  /// before every task of every lower phase ended, even if its own
  /// dependencies were already satisfied — the bulk-synchronous model the
  /// paper contrasts against (the merge step stalls on the barrier instead
  /// of firing as soon as its two children are done). Phases run in
  /// ascending `Task::phase` order; a dependency from a later phase back
  /// into an earlier one is rejected before anything runs.
  Phased,
};

/// Default per-task cost when no cost hook is set: the product of the
/// task's cost-model dims (minimum 1.0) — a crude flop proxy that already
/// separates an O(m^3) PARTIAL_FACTOR from an O(k^2) MERGE. Plug in
/// distsim::CostModel::task_flops (via ThreadPoolExecutor::set_cost) for
/// flop-true weighting.
double default_task_cost(const Task& t);

/// Task-graph executor: worker threads drain ready tasks in the order the
/// Schedule chooses.
class ThreadPoolExecutor {
 public:
  /// `num_workers` worker threads (>= 1). The calling thread coordinates.
  explicit ThreadPoolExecutor(int num_workers = 1, Schedule schedule = Schedule::Fifo);

  /// Run every task in the graph respecting dependencies; returns the
  /// execution statistics (trace + compute/overhead breakdown). Exceptions
  /// thrown by task bodies are captured; no task starts after the first
  /// one, and the error is rethrown once the running tasks drain — the
  /// failing task's trace is still end-stamped so compute/overhead
  /// accounting never sees a negative duration, and tasks that never ran
  /// keep an unstamped trace. When `error_out` is non-null, a captured
  /// exception is stored there instead of rethrown and the (partial)
  /// statistics are returned. When the graph carries a release hook, it
  /// fires the moment each handle's last accessor has completed
  /// (dag_dataflow's release schedule).
  ExecutionStats run(const TaskGraph& graph, std::exception_ptr* error_out = nullptr);

  /// Override the per-task cost that weights the critical path under
  /// Schedule::CriticalPath; pass an empty function to restore
  /// default_task_cost. The other schedules ignore it.
  void set_cost(TaskCostFn cost) { cost_ = std::move(cost); }

  /// Toggle static DAG verification (dag_verify.hpp) before execution. When
  /// enabled, run() throws DagStructureError / DagRaceError — directly, never
  /// through `error_out` — before any task body executes. Defaults to
  /// rt::verify_dag_default(): on in debug builds, off in release, always
  /// overridable via the HATRIX_VERIFY_DAG environment variable.
  void set_verify_dag(bool enabled) { verify_dag_ = enabled; }

  /// Toggle static dataflow analysis (dag_dataflow.hpp) before execution.
  /// When enabled, run() throws DagUseBeforeDefError — directly, never
  /// through `error_out` — before any task body executes; warnings are not
  /// fatal. Defaults to rt::analyze_dag_default() (HATRIX_ANALYZE_DAG env,
  /// else on in debug builds). Independent of the release schedule: that is
  /// consumed whenever the graph has a release hook installed.
  void set_analyze_dag(bool enabled) { analyze_dag_ = enabled; }

 private:
  int num_workers_;
  Schedule schedule_;
  bool verify_dag_;
  bool analyze_dag_;
  TaskCostFn cost_;
};

}  // namespace hatrix::rt
