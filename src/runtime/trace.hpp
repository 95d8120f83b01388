#pragma once
/// \file trace.hpp
/// \brief Execution traces and the compute/overhead breakdown of Fig. 10.
///
/// The executor records one record per task (who ran it, when). The
/// aggregate statistics reproduce the paper's instrumentation: "COMPUTE TASK
/// TIME" is per-worker time inside task bodies; "RUNTIME OVERHEAD" is
/// everything else the worker spent while the executor was live (scheduling,
/// queue contention, dependency management, idling on unmet dependencies).

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/task_graph.hpp"

namespace hatrix::rt {

/// Timing record for one executed task (seconds relative to executor start).
struct TaskTrace {
  TaskId task = -1;   ///< which task ran
  int worker = -1;    ///< worker thread that ran it
  double start = 0.0; ///< start time (s since executor start)
  double end = 0.0;   ///< end time (s since executor start)

  /// Time spent inside the task body.
  [[nodiscard]] double duration() const { return end - start; }
};

/// Aggregate execution statistics.
struct ExecutionStats {
  double wall_time = 0.0;            ///< executor start to last task end
  int workers = 0;                   ///< worker thread count
  double compute_total = 0.0;        ///< sum of task durations over all workers
  double overhead_total = 0.0;       ///< workers*wall - compute
  std::vector<TaskTrace> traces;     ///< one record per executed task

  /// Time all workers spent on task discovery and ready-queue management:
  /// the up-front schedule setup (ready keys — under CriticalPath the
  /// cost-weighted bottom levels — phase ranks, source seeding),
  /// popping/stealing ready tasks, and releasing dependents when a task
  /// finishes. This is the measured shared-memory analogue of the paper's
  /// DTD discovery overhead (Sec. 5.3.3); it deliberately excludes idle
  /// waiting, which overhead_total already accounts for.
  double discovery_total = 0.0;
  /// Per-worker slice of discovery_total (size == workers). The up-front
  /// schedule setup is charged to worker 0; the calling thread performs it.
  std::vector<double> worker_discovery;

  /// Average per-worker compute time (the paper's "COMPUTE TASK TIME").
  [[nodiscard]] double compute_per_worker() const {
    return workers > 0 ? compute_total / workers : 0.0;
  }
  /// Average per-worker overhead (the paper's "RUNTIME OVERHEAD").
  [[nodiscard]] double overhead_per_worker() const {
    return workers > 0 ? overhead_total / workers : 0.0;
  }
  /// Average per-worker discovery / ready-queue time.
  [[nodiscard]] double discovery_per_worker() const {
    return workers > 0 ? discovery_total / workers : 0.0;
  }
  /// Fraction of total worker-seconds spent on discovery — the ablation's
  /// "DTD overhead share" once the DAG emission time is added by the caller.
  [[nodiscard]] double discovery_share() const {
    const double denom = wall_time * workers;
    return denom > 0.0 ? discovery_total / denom : 0.0;
  }
};

/// Validate a trace against the graph: every task ran exactly once, no task
/// started before all of its predecessors ended, no two tasks overlap on the
/// same worker (per-worker trace streams are disjoint), and the discovery
/// timer totals stay within the wall-clock bounds
/// (0 <= discovery_total <= workers * wall_time). Returns an empty string
/// when consistent, else a description of the first violation.
std::string validate_trace(const TaskGraph& graph, const ExecutionStats& stats);

/// Duration-weighted critical path of an executed graph: the cost of the
/// most expensive dependency chain with every task weighted by its measured
/// duration. critical_path_time / wall_time is the critical-path
/// utilization — 1.0 means the executor ran the critical path back-to-back
/// with zero stall, lower means scheduling stalls stretched it.
double critical_path_time(const TaskGraph& graph, const ExecutionStats& stats);

/// Export a trace as Chrome/Perfetto trace-event JSON (open in
/// chrome://tracing or ui.perfetto.dev): one row per worker, one slice per
/// task.
std::string to_chrome_trace(const TaskGraph& graph, const ExecutionStats& stats);

/// Export the DAG as Graphviz DOT (tasks colored by kind) for inspection of
/// small graphs — the Fig. 6 / Fig. 8 pictures, generated from real graphs.
std::string to_dot(const TaskGraph& graph);

}  // namespace hatrix::rt
