#pragma once
/// \file task_graph.hpp
/// \brief DTD-style task graph with dependencies inferred from data access.
///
/// Mirrors PaRSEC's Dynamic Task Discovery interface (Sec. 4.2): the program
/// inserts tasks in sequential order, declaring which data each task reads
/// or read-writes; the runtime derives the DAG from the access order
/// (read-after-write, write-after-read, write-after-write). Every "process"
/// in the paper's DTD discussion discovers this same full graph — the cost
/// of that redundant discovery is what the overhead model in distsim
/// charges.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace hatrix::rt {

using TaskId = std::int64_t;  ///< index of a task in its graph
using DataId = std::int64_t;  ///< index of a data handle in its graph

/// Access mode of one task-data pair (PaRSEC's INPUT / INOUT / OUTPUT).
enum class Access {
  Read,       ///< the task only reads the block (PaRSEC INPUT)
  ReadWrite,  ///< the task reads then mutates the block (PaRSEC INOUT)
  Write       ///< the task overwrites the block without reading the previous
              ///< value (PaRSEC OUTPUT) — same ordering rules as ReadWrite,
              ///< but dag_dataflow knows the prior value is not consumed
};

/// Whether an access mode mutates the block (ReadWrite or Write). The edge
/// derivation, verifier, mapper and simulator all share this predicate.
constexpr bool is_write(Access a) { return a != Access::Read; }

/// One declared access of a task: an opaque resource id (a registered data
/// handle — a matrix block, a node's basis slot, …) plus the access mode.
/// The graph derives its dependency edges from these declarations, and
/// dag_verify.hpp re-checks the finished DAG against them: every W/W or R/W
/// pair on the same resource must be ordered by a dependency path.
using TaskAccess = std::pair<DataId, Access>;

/// A registered piece of data (a matrix block). `bytes` feeds the
/// communication model; `owner` is the process that holds the block under
/// the chosen distribution.
struct DataHandle {
  DataId id = -1;         ///< handle index in the graph
  std::string name;       ///< display name, e.g. "diag(2,1)"
  std::int64_t bytes = 0; ///< payload size for the communication model
  int owner = 0;          ///< owning process under the chosen distribution
  bool input = false;     ///< pre-initialized before the graph runs — a task
                          ///< may read it before any task wrote it
  bool output = false;    ///< consumed after the graph finishes — a final
                          ///< write that no task reads is not a dead store,
                          ///< and the block stays resident to the end
};

/// Hook an executor fires when a data handle's statically-proven last use
/// has completed (dag_dataflow's release schedule): every task that declared
/// an access to the handle has finished, so the backing storage can be freed
/// or poisoned. Called from worker threads, at most once per handle per run;
/// implementations only touch the state behind the released handle.
using ReleaseHook = std::function<void(DataId)>;

/// One node of the DAG.
struct Task {
  TaskId id = -1;              ///< task index in the graph
  std::string name;            ///< display name, e.g. "POTRF(3)"
  std::string kind;            ///< cost-model key, e.g. "potrf"
  std::vector<std::int64_t> dims;  ///< cost-model dimensions (block sizes)
  std::function<void()> work;  ///< actual computation; may be empty (DES-only)
  std::vector<TaskAccess> accesses;  ///< data touched, in declaration order
  int priority = 0;  ///< larger runs earlier among ready tasks
  int phase = 0;     ///< barrier group under Schedule::Phased (HSS level,
                     ///< tile-Cholesky step)
};

/// "(level,index)": the tree-node suffix of the HSS task and data names,
/// e.g. the "(2,1)" of "diag(2,1)".
std::string node_tag(int level, std::int64_t index);

/// DAG built by sequential task insertion, PaRSEC-DTD style.
class TaskGraph {
 public:
  /// Register a data block. Returns its handle id.
  DataId register_data(std::string name, std::int64_t bytes = 0, int owner = 0);

  /// Reassign the owner process of a block (set by distribution policies).
  void set_owner(DataId d, int owner);

  /// Declare a block pre-initialized before the graph runs (a seeded panel,
  /// a block of the already-built matrix): dag_dataflow accepts reads of it
  /// with no in-graph def and counts it resident from the start.
  void mark_input(DataId d);
  /// Declare a block consumed after the graph finishes (the factorization
  /// result, the solution panel): a final un-read write of it is not a dead
  /// store and it is never counted as released.
  void mark_output(DataId d);

  /// Install the release hook the executor fires at each handle's last use
  /// (see ReleaseHook). Emitters that can free retired blocks early set
  /// this; the executor consumes the dag_dataflow release schedule iff it
  /// is set.
  void set_release_hook(ReleaseHook hook) { release_hook_ = std::move(hook); }
  /// The installed release hook (empty when early release is off).
  [[nodiscard]] const ReleaseHook& release_hook() const { return release_hook_; }

  /// Insert a task; dependencies are derived from `accesses` against all
  /// previously inserted tasks (last-writer / readers-barrier rules).
  TaskId insert_task(Task t);

  /// Convenience overload.
  TaskId insert_task(std::string name, std::string kind,
                     std::vector<std::int64_t> dims, std::function<void()> work,
                     std::vector<TaskAccess> accesses,
                     int priority = 0, int phase = 0);

  /// All tasks in insertion (sequential-submission) order.
  [[nodiscard]] const std::vector<Task>& tasks() const { return tasks_; }
  /// All registered data handles.
  [[nodiscard]] const std::vector<DataHandle>& data() const { return data_; }
  /// One data handle by id.
  [[nodiscard]] const DataHandle& data(DataId d) const;

  /// successors()[t] = tasks that must wait for t (deduplicated).
  [[nodiscard]] const std::vector<std::vector<TaskId>>& successors() const {
    return succ_;
  }
  /// Number of direct predecessors per task.
  [[nodiscard]] const std::vector<int>& in_degree() const { return in_degree_; }

  /// Number of tasks inserted so far.
  [[nodiscard]] std::int64_t num_tasks() const {
    return static_cast<std::int64_t>(tasks_.size());
  }
  /// Number of dependency edges (deduplicated).
  [[nodiscard]] std::int64_t num_edges() const { return num_edges_; }

  /// Length (in tasks) of the longest chain — the unit-cost critical path,
  /// the maximum of rt::bottom_levels under unit cost. O(V + E) per call.
  [[nodiscard]] std::int64_t critical_path_length() const;

  /// Test-only mutation: remove the dependency edge `from` → `to`, leaving
  /// the access declarations untouched. Returns false if no such edge
  /// exists. This simulates an emitter bug (a forgotten dependency) so the
  /// static verifier's race detection can be exercised against real DAGs;
  /// never call it outside tests.
  bool drop_dependency_for_test(TaskId from, TaskId to);

  /// Test-only mutation: splice in a raw dependency edge with NO validation
  /// — `to` may equal `from` (self-dependency), point backwards (cycle), or
  /// be an unregistered task id (dangling edge). Exists solely to construct
  /// the malformed graphs dag_verify must reject; never call it outside
  /// tests. In-degree/edge counts are only updated when `to` is a valid
  /// task, so a dangling edge is visible to the verifier as an inconsistent
  /// successor id.
  void add_dependency_for_test(TaskId from, TaskId to);

  /// Test-only mutation: remove task `t`'s declared access to handle `d`,
  /// leaving the already-derived edges untouched. This simulates an emitter
  /// annotation bug (a forgotten read or write declaration) so dag_dataflow's
  /// use-before-def / dead-store detection can be exercised against real
  /// DAGs; never call it outside tests. Returns false if no such access.
  bool drop_access_for_test(TaskId t, DataId d);

 private:
  void add_edge(TaskId from, TaskId to);

  std::vector<Task> tasks_;
  std::vector<DataHandle> data_;
  ReleaseHook release_hook_;
  std::vector<std::vector<TaskId>> succ_;
  std::vector<int> in_degree_;
  std::int64_t num_edges_ = 0;

  // DTD bookkeeping per data block.
  struct DataState {
    TaskId last_writer = -1;
    std::vector<TaskId> readers_since_write;
  };
  std::vector<DataState> state_;
};

}  // namespace hatrix::rt
