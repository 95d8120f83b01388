#include "runtime/dag_verify.hpp"

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <vector>

#include "runtime/dag_detail.hpp"

namespace hatrix::rt {

namespace detail {

std::string task_label(const TaskGraph& g, TaskId t) {
  return g.tasks()[static_cast<std::size_t>(t)].name + " (#" + std::to_string(t) +
         ")";
}

bool env_flag_default(const char* var) {
  if (const char* env = std::getenv(var)) {
    const std::string v(env);
    return !(v == "0" || v == "false" || v == "off" || v == "OFF");
  }
#ifdef NDEBUG
  return false;
#else
  return true;
#endif
}

std::vector<std::vector<Event>> event_chains(const TaskGraph& graph) {
  std::vector<std::vector<Event>> ev(graph.data().size());
  for (const auto& t : graph.tasks())
    for (const auto& [d, mode] : t.accesses)
      ev[static_cast<std::size_t>(d)].push_back({t.id, mode});
  return ev;
}

OrderedPreds ordered_preds(const TaskGraph& graph, std::vector<TaskId> order) {
  const auto n = static_cast<std::size_t>(graph.num_tasks());
  if (order.empty()) {
    order.resize(n);
    std::iota(order.begin(), order.end(), TaskId{0});
  }
  std::vector<std::size_t> pos(n);
  for (std::size_t i = 0; i < n; ++i) pos[static_cast<std::size_t>(order[i])] = i;
  OrderedPreds op{std::move(order), std::vector<std::vector<TaskId>>(n)};
  for (std::size_t t = 0; t < n; ++t)
    for (TaskId s : graph.successors()[t])
      if (s >= 0 && s < graph.num_tasks() &&
          pos[static_cast<std::size_t>(s)] > pos[t])
        op.preds[static_cast<std::size_t>(s)].push_back(static_cast<TaskId>(t));
  return op;
}

void fill_shape(const OrderedPreds& op, DagStats& stats) {
  const std::size_t n = op.order.size();
  if (n == 0) return;
  std::vector<std::int64_t> depth(n, 1);
  for (TaskId id : op.order) {
    const auto t = static_cast<std::size_t>(id);
    for (TaskId p : op.preds[t])
      depth[t] = std::max(depth[t], depth[static_cast<std::size_t>(p)] + 1);
  }
  stats.critical_path = *std::max_element(depth.begin(), depth.end());
  std::vector<std::int64_t> width(static_cast<std::size_t>(stats.critical_path), 0);
  for (std::int64_t d : depth) ++width[static_cast<std::size_t>(d - 1)];
  stats.max_width = *std::max_element(width.begin(), width.end());
  stats.avg_width =
      static_cast<double>(n) / static_cast<double>(stats.critical_path);
}

AncestorSets::AncestorSets(const OrderedPreds& op)
    : words_((op.order.size() + 63) / 64), bits_(op.order.size() * words_, 0) {
  for (TaskId id : op.order) {
    const auto t = static_cast<std::size_t>(id);
    std::uint64_t* row = bits_.data() + t * words_;
    for (TaskId p : op.preds[t]) {
      const auto pi = static_cast<std::size_t>(p);
      const std::uint64_t* prow = bits_.data() + pi * words_;
      for (std::size_t w = 0; w < words_; ++w) row[w] |= prow[w];
      row[pi / 64] |= std::uint64_t{1} << (pi % 64);
    }
  }
}

}  // namespace detail

namespace {

[[noreturn]] void structure_fail(const std::string& what) {
  throw DagStructureError("dag_verify: " + what);
}

}  // namespace

DagRaceError::DagRaceError(TaskId a, std::string a_name, TaskId b,
                           std::string b_name, DataId res,
                           std::string res_name)
    : Error("dag_verify: race — tasks " + a_name + " (#" + std::to_string(a) +
            ") and " + b_name + " (#" + std::to_string(b) +
            ") both access resource \"" + res_name + "\" (data #" +
            std::to_string(res) +
            ") with at least one write, but no dependency path orders them"),
      task_a(a),
      task_b(b),
      resource(res),
      task_a_name(std::move(a_name)),
      task_b_name(std::move(b_name)),
      resource_name(std::move(res_name)) {}

DagStats verify_dag(const TaskGraph& graph) {
  const auto n = static_cast<std::size_t>(graph.num_tasks());
  DagStats stats;
  stats.tasks = graph.num_tasks();
  stats.edges = graph.num_edges();
  if (n == 0) return stats;

  // --- Structural pass: dangling successors, self-dependencies, and
  // in-degree bookkeeping that disagrees with the edge lists.
  std::vector<int> indeg(n, 0);
  for (std::size_t t = 0; t < n; ++t) {
    for (TaskId s : graph.successors()[t]) {
      if (s < 0 || s >= graph.num_tasks())
        structure_fail("dangling dependency — task " +
                       detail::task_label(graph, static_cast<TaskId>(t)) +
                       " lists successor #" + std::to_string(s) +
                       " which is not a task of this graph");
      if (s == static_cast<TaskId>(t))
        structure_fail("self-dependency on task " +
                       detail::task_label(graph, static_cast<TaskId>(t)));
      ++indeg[static_cast<std::size_t>(s)];
    }
  }
  for (std::size_t t = 0; t < n; ++t) {
    if (indeg[t] != graph.in_degree()[t])
      structure_fail("in-degree bookkeeping mismatch on task " +
                     detail::task_label(graph, static_cast<TaskId>(t)) + " (stored " +
                     std::to_string(graph.in_degree()[t]) + ", edges say " +
                     std::to_string(indeg[t]) + ")");
  }

  // --- Kahn topological sort: detects cycles and yields the order the
  // depth and reachability sweeps run in. Duplicate (parallel) edges are
  // harmless: each occurrence was counted into indeg above and is
  // decremented once here.
  std::vector<TaskId> topo;
  topo.reserve(n);
  std::vector<int> remaining = indeg;
  for (std::size_t t = 0; t < n; ++t)
    if (remaining[t] == 0) topo.push_back(static_cast<TaskId>(t));
  for (std::size_t head = 0; head < topo.size(); ++head) {
    const auto t = static_cast<std::size_t>(topo[head]);
    for (TaskId s : graph.successors()[t])
      if (--remaining[static_cast<std::size_t>(s)] == 0) topo.push_back(s);
  }
  if (topo.size() != n) {
    // Any task with dependencies left unsatisfied sits on (or behind) a cycle.
    for (std::size_t t = 0; t < n; ++t)
      if (remaining[t] > 0)
        structure_fail("dependency cycle through task " +
                       detail::task_label(graph, static_cast<TaskId>(t)));
  }

  // --- Depth/width statistics and race detection, both over the
  // topological order.
  const detail::OrderedPreds op = detail::ordered_preds(graph, std::move(topo));
  detail::fill_shape(op, stats);
  const detail::AncestorSets anc(op);
  auto ordered = [&](TaskId a, TaskId b) {
    return anc.precedes(a, b) || anc.precedes(b, a);
  };

  // Per resource, every pair with at least one writer must be ordered.
  // Read-only sharing is free; the nested loop only walks writer×accessor
  // pairs, and production DAGs have single-digit accessor counts per
  // resource.
  const auto touch = detail::event_chains(graph);
  for (std::size_t d = 0; d < touch.size(); ++d) {
    const auto& acc = touch[d];
    for (std::size_t i = 0; i < acc.size(); ++i) {
      if (!is_write(acc[i].mode)) continue;
      for (std::size_t j = 0; j < acc.size(); ++j) {
        if (j == i) continue;
        // Writer/writer pairs are checked once (from the earlier index).
        if (is_write(acc[j].mode) && j < i) continue;
        if (acc[i].task == acc[j].task) continue;  // same task, two accesses
        if (!ordered(acc[i].task, acc[j].task)) {
          const TaskId a = std::min(acc[i].task, acc[j].task);
          const TaskId b = std::max(acc[i].task, acc[j].task);
          throw DagRaceError(
              a, graph.tasks()[static_cast<std::size_t>(a)].name, b,
              graph.tasks()[static_cast<std::size_t>(b)].name,
              static_cast<DataId>(d),
              graph.data()[d].name);
        }
      }
    }
  }

  return stats;
}

std::vector<double> bottom_levels(const TaskGraph& graph, const TaskCostFn& cost) {
  HATRIX_CHECK(static_cast<bool>(cost), "bottom_levels needs a cost callback");
  const auto n = static_cast<std::size_t>(graph.num_tasks());
  std::vector<double> bl(n, 0.0);
  // Insertion order is topological, so a single reverse sweep resolves every
  // successor before its predecessors. Non-forward edges (test-only splices)
  // are skipped.
  for (std::size_t t = n; t-- > 0;) {
    double down = 0.0;
    for (TaskId s : graph.successors()[t])
      if (s > static_cast<TaskId>(t) && s < graph.num_tasks())
        down = std::max(down, bl[static_cast<std::size_t>(s)]);
    bl[t] = std::max(0.0, cost(graph.tasks()[t])) + down;
  }
  return bl;
}

bool verify_dag_default() { return detail::env_flag_default("HATRIX_VERIFY_DAG"); }

}  // namespace hatrix::rt
