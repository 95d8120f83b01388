#pragma once
/// \file dag_dataflow.hpp
/// \brief Static dataflow & memory-lifetime analysis for task DAGs.
///
/// dag_verify.hpp proves the *edge set* complete against the declared
/// accesses; this pass analyzes the *values* flowing through those accesses.
/// Per data handle it reconstructs the def-use chain exactly as the DTD
/// inference saw it (tasks in insertion order, each access Read / ReadWrite /
/// Write), and from the chains derives:
///
///  1. typed diagnostics — a pure Read of a handle no task has yet written
///     (and that is not marked a graph input) throws DagUseBeforeDefError
///     naming the task and the resource; values produced but never consumed
///     (dead stores, fully dead tasks), writes that clobber an unconsumed
///     value, and zero-byte handles are reported as warnings;
///  2. lifetime intervals — def task and last-use task per handle — and from
///     them a static peak-resident-bytes bound: exact along the serial
///     insertion order, plus a bound valid for *any* edge-consistent
///     schedule (via the same ancestor bitsets the race check uses);
///  3. a last-use release schedule (ReleasePlan) the executor consumes via
///     TaskGraph::set_release_hook, so emitters can free retired blocks at
///     their statically-proven last use instead of at teardown;
///  4. under a distsim mapping, per-rank footprint and cross-rank traffic
///     (analyze_dag_ranks), matching distsim::count_messages' edge walk.
///
/// This is the static block-storage budgeting that task-based sparse solvers
/// (Jacquelin et al.'s fan-both Cholesky, Lacoste et al.'s runtime-backed
/// PaStiX — see PAPERS.md) perform before executing a single task: the
/// paper's O(N) memory claim holds only if samples, rotated panels and Schur
/// pieces retire as the tree sweep ascends, and this pass proves where.
///
/// Gating mirrors the verifier: HATRIX_ANALYZE_DAG env /
/// Executor::set_analyze_dag / `--analyze-dag` bench flags, default on in
/// debug builds (analyze_dag_default).

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "runtime/dag_verify.hpp"
#include "runtime/task_graph.hpp"

namespace hatrix::rt {

/// A task declared a pure Read of a handle that no earlier task writes and
/// that is not marked a graph input (TaskGraph::mark_input): under DTD
/// semantics the task would consume uninitialized storage.
class DagUseBeforeDefError : public Error {
 public:
  DagUseBeforeDefError(TaskId task, std::string task_name, DataId resource,
                       std::string resource_name);

  TaskId task = -1;            ///< the reading task
  DataId resource = -1;        ///< the never-written handle
  std::string task_name;       ///< display name of the task
  std::string resource_name;   ///< display name of the handle
};

/// Non-fatal findings of the dataflow pass.
enum class DagWarningKind {
  DeadStore,           ///< final value of a handle is never consumed: the
                       ///< producing task's write is wasted (unless the
                       ///< handle is marked a graph output)
  DeadTask,            ///< every value the task produces is dead — the task
                       ///< could be deleted without changing any consumed
                       ///< result
  WriteAfterLastRead,  ///< a pure Write clobbers a value no task ever read
  ZeroBytes,           ///< an accessed handle has bytes == 0, so every byte
                       ///< accounting (peaks, traffic, release savings)
                       ///< silently undercounts it
};

/// One warning: the offending task/handle pair plus a rendered message.
struct DagWarning {
  DagWarningKind kind = DagWarningKind::DeadStore;
  TaskId task = -1;           ///< offending task (-1 for ZeroBytes)
  DataId resource = -1;       ///< handle the finding is about
  std::string task_name;      ///< display name of the task ("" if task < 0)
  std::string resource_name;  ///< display name of the handle
  std::string message;        ///< human-readable description
};

/// Lifetime interval of one handle, in task-insertion coordinates.
struct DataLifetime {
  DataId data = -1;      ///< the handle
  TaskId def = -1;       ///< first writing task (-1: input-only / untouched)
  TaskId last_use = -1;  ///< last task touching it (-1: untouched)
  std::int64_t uses = 0; ///< number of distinct tasks touching it
};

/// Last-use release schedule. Executors seed a refcount per handle from
/// `initial_uses`, decrement the counts in `task_data[t]` when task t's body
/// has completed, and fire TaskGraph::release_hook() the moment a count hits
/// zero — at that point every task that declared an access to the handle has
/// finished, on any edge-consistent schedule. Handles marked output (and
/// untouched handles) have initial_uses == 0 and never appear in task_data,
/// so the hook never fires for them.
struct ReleasePlan {
  std::vector<int> initial_uses;             ///< per-DataId distinct-task count
  std::vector<std::vector<DataId>> task_data;  ///< per-task deduped handles
};

/// Full analysis result. `stats` extends the verifier's structural numbers
/// with the byte accounting (data_bytes / peak_bytes_serial / peak_bytes_any).
struct DagDataflowReport {
  DagStats stats;
  std::vector<DataLifetime> lifetimes;  ///< indexed by DataId
  std::vector<DagWarning> warnings;
  ReleasePlan plan;
};

/// Per-rank usage under a task→rank mapping (analyze_dag_ranks).
struct RankUsage {
  /// Bytes resident on each rank: blocks it owns plus copies of remote
  /// blocks its tasks touch.
  std::vector<std::int64_t> footprint_bytes;
  /// Bytes each rank sends to other ranks (producer-side accounting).
  std::vector<std::int64_t> sent_bytes;
  std::int64_t cross_bytes = 0;     ///< total cross-rank traffic
  std::int64_t cross_messages = 0;  ///< producer→consumer-task messages,
                                    ///< aggregated per pair like
                                    ///< distsim::count_messages
};

/// Run the dataflow pass: throws DagUseBeforeDefError on the first read of a
/// never-written non-input handle; otherwise returns lifetimes, warnings,
/// the release schedule and the peak-bytes statistics. Cost is O(V + E + A)
/// for the chains plus O(V·A/64) bit-parallel work for the any-schedule
/// peak bound (A = total declared accesses) — the same ms-scale budget as
/// verify_dag on the production DAGs.
DagDataflowReport analyze_dag(const TaskGraph& graph);

/// Just the release schedule (no diagnostics, no peak accounting): a single
/// O(V + A) sweep. Executors call this when a release hook is installed,
/// whether or not full analysis is enabled.
ReleasePlan release_plan(const TaskGraph& graph);

/// Per-rank footprint and cross-rank traffic of `graph` under the mapping
/// `task_owner` (one rank id per task, e.g. distsim::Mapping::task_owner).
/// Traffic walks the last-writer chain exactly like the simulator's
/// data-flow edges, so cross_messages/cross_bytes agree with
/// distsim::count_messages on the same mapping.
RankUsage analyze_dag_ranks(const TaskGraph& graph,
                            const std::vector<int>& task_owner, int num_procs);

/// Default analyze-before-run policy for executors, mirroring
/// verify_dag_default(): HATRIX_ANALYZE_DAG forces on/off; unset means on in
/// debug builds, off in release builds.
bool analyze_dag_default();

/// How an emitter wires early release (the defaulted parameter of the
/// emit_* functions that support it).
enum class ReleaseMode {
  None,    ///< no release hook: blocks live until teardown (seed behavior)
  Free,    ///< free a block's backing storage at its proven last use
  Poison,  ///< debug: overwrite the block with NaNs instead of freeing, so
           ///< any task reading past the proven last use corrupts its
           ///< output and the conformance suite's bit-identity check fails
};

}  // namespace hatrix::rt
