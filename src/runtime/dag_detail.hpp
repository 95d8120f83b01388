#pragma once
/// \file dag_detail.hpp
/// \brief The graph facts verify_dag and analyze_dag both read, built once.
///
/// Internal to src/runtime. Both static passes walk the same per-handle
/// access chains, the same unit-cost depth levels and the same ancestor
/// sets; this header is the one place they are computed. The weighted
/// longest path is rt::bottom_levels (dag_verify.hpp), which also backs
/// TaskGraph::critical_path_length and rt::critical_path_time.

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/dag_verify.hpp"
#include "runtime/task_graph.hpp"

namespace hatrix::rt::detail {

/// "name (#id)": how diagnostics name a task.
std::string task_label(const TaskGraph& g, TaskId t);

/// The verify/analyze-before-run default: the environment variable `var`
/// forces the gate off ("0", "false", "off", "OFF") or on (any other value);
/// unset, the gate is on in debug builds (NDEBUG not defined) and off in
/// release builds.
bool env_flag_default(const char* var);

/// One declared access in per-handle chain order.
struct Event {
  TaskId task = -1;
  Access mode = Access::Read;
};

/// Per-handle access chains in DTD (task-insertion, then declaration) order,
/// the order the dependency inference consumed them in. A task's accesses
/// to one handle are adjacent in its chain.
std::vector<std::vector<Event>> event_chains(const TaskGraph& graph);

/// A topological order and, per task, the predecessors that precede it in
/// that order. An edge p → t is kept iff t is a task of the graph and p
/// comes before t in `order`; every other edge (self, dangling or backward,
/// which only the test-only mutators create) is dropped.
struct OrderedPreds {
  std::vector<TaskId> order;
  std::vector<std::vector<TaskId>> preds;
};
/// Build OrderedPreds over `order`, a permutation of the task ids; empty
/// means insertion order.
OrderedPreds ordered_preds(const TaskGraph& graph, std::vector<TaskId> order = {});

/// The unit-cost depth/width statistics: fill stats.critical_path (deepest
/// level, in tasks), stats.max_width (most tasks on one depth level) and
/// stats.avg_width (tasks / critical_path). Leaves them 0 on an empty graph.
void fill_shape(const OrderedPreds& op, DagStats& stats);

/// Ancestor sets as bitsets, built in topological order:
/// anc[t] = union over predecessors p of (anc[p] | {p}). One 64-bit word
/// covers 64 tasks, so the sweep is O(E·V/64) time and O(V²/64) space — a
/// 5 000-task production DAG costs ~3 MB and single-digit milliseconds.
class AncestorSets {
 public:
  explicit AncestorSets(const OrderedPreds& op);
  /// Whether a dependency path leads from `a` to `b`.
  [[nodiscard]] bool precedes(TaskId a, TaskId b) const {
    const auto ai = static_cast<std::size_t>(a);
    return ((bits_[static_cast<std::size_t>(b) * words_ + ai / 64] >> (ai % 64)) &
            1) != 0;
  }

 private:
  std::size_t words_;
  std::vector<std::uint64_t> bits_;
};

}  // namespace hatrix::rt::detail
