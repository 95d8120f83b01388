#include "runtime/dag_verify.hpp"

#include <algorithm>
#include <cstdlib>
#include <vector>

namespace hatrix::rt {

namespace {

std::string task_label(const TaskGraph& g, TaskId t) {
  return g.tasks()[static_cast<std::size_t>(t)].name + " (#" + std::to_string(t) +
         ")";
}

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
                       task_label(graph, static_cast<TaskId>(t)) +
                       " lists successor #" + std::to_string(s) +
                       " which is not a task of this graph");
      if (s == static_cast<TaskId>(t))
        structure_fail("self-dependency on task " +
                       task_label(graph, static_cast<TaskId>(t)));
      ++indeg[static_cast<std::size_t>(s)];
    }
  }
  for (std::size_t t = 0; t < n; ++t) {
    if (indeg[t] != graph.in_degree()[t])
      structure_fail("in-degree bookkeeping mismatch on task " +
                     task_label(graph, static_cast<TaskId>(t)) + " (stored " +
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
                       task_label(graph, static_cast<TaskId>(t)));
  }

  // --- Depth / width statistics over the topological order.
  std::vector<std::int64_t> depth(n, 1);
  for (TaskId id : topo) {
    const auto t = static_cast<std::size_t>(id);
    for (TaskId s : graph.successors()[t])
      depth[static_cast<std::size_t>(s)] =
          std::max(depth[static_cast<std::size_t>(s)], depth[t] + 1);
  }
  stats.critical_path = *std::max_element(depth.begin(), depth.end());
  std::vector<std::int64_t> width(static_cast<std::size_t>(stats.critical_path), 0);
  for (std::size_t t = 0; t < n; ++t)
    ++width[static_cast<std::size_t>(depth[t] - 1)];
  stats.max_width = *std::max_element(width.begin(), width.end());
  stats.avg_width =
      static_cast<double>(stats.tasks) / static_cast<double>(stats.critical_path);

  // --- Race detection. Ancestor sets as bitsets, built in topological
  // order: anc[t] = union over predecessors p of (anc[p] | {p}). One
  // 64-bit word covers 64 tasks, so the sweep is O(E·V/64) time and
  // O(V²/64) space — a 5 000-task production DAG costs ~3 MB and
  // single-digit milliseconds.
  const std::size_t words = (n + 63) / 64;
  std::vector<std::vector<TaskId>> preds(n);
  for (std::size_t t = 0; t < n; ++t)
    for (TaskId s : graph.successors()[t])
      preds[static_cast<std::size_t>(s)].push_back(static_cast<TaskId>(t));
  std::vector<std::uint64_t> anc(n * words, 0);
  for (TaskId id : topo) {
    const auto t = static_cast<std::size_t>(id);
    std::uint64_t* row = anc.data() + t * words;
    for (TaskId p : preds[t]) {
      const auto pi = static_cast<std::size_t>(p);
      const std::uint64_t* prow = anc.data() + pi * words;
      for (std::size_t w = 0; w < words; ++w) row[w] |= prow[w];
      row[pi / 64] |= std::uint64_t{1} << (pi % 64);
    }
  }
  auto ordered = [&](TaskId a, TaskId b) {
    const auto ai = static_cast<std::size_t>(a), bi = static_cast<std::size_t>(b);
    return ((anc[bi * words + ai / 64] >> (ai % 64)) & 1) != 0 ||
           ((anc[ai * words + bi / 64] >> (bi % 64)) & 1) != 0;
  };

  // Per resource, every pair with at least one writer must be ordered.
  // Read-only sharing is free; the nested loop only walks writer×accessor
  // pairs, and production DAGs have single-digit accessor counts per
  // resource.
  const auto nd = static_cast<std::size_t>(graph.data().size());
  std::vector<std::vector<std::pair<TaskId, Access>>> touch(nd);
  for (std::size_t t = 0; t < n; ++t)
    for (const auto& [d, mode] : graph.tasks()[t].accesses)
      touch[static_cast<std::size_t>(d)].emplace_back(static_cast<TaskId>(t), mode);
  for (std::size_t d = 0; d < nd; ++d) {
    const auto& acc = touch[d];
    for (std::size_t i = 0; i < acc.size(); ++i) {
      if (!is_write(acc[i].second)) continue;
      for (std::size_t j = 0; j < acc.size(); ++j) {
        if (j == i) continue;
        // Writer/writer pairs are checked once (from the earlier index).
        if (is_write(acc[j].second) && j < i) continue;
        if (acc[i].first == acc[j].first) continue;  // same task, two accesses
        if (!ordered(acc[i].first, acc[j].first)) {
          const TaskId a = std::min(acc[i].first, acc[j].first);
          const TaskId b = std::max(acc[i].first, acc[j].first);
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
  // are skipped, matching critical_path_length().
  for (std::size_t t = n; t-- > 0;) {
    double down = 0.0;
    for (TaskId s : graph.successors()[t])
      if (s > static_cast<TaskId>(t) && s < graph.num_tasks())
        down = std::max(down, bl[static_cast<std::size_t>(s)]);
    bl[t] = std::max(0.0, cost(graph.tasks()[t])) + down;
  }
  return bl;
}

bool verify_dag_default() {
  if (const char* env = std::getenv("HATRIX_VERIFY_DAG")) {
    const std::string v(env);
    if (v == "0" || v == "false" || v == "off" || v == "OFF") return false;
    return true;
  }
#ifdef NDEBUG
  return false;
#else
  return true;
#endif
}

}  // namespace hatrix::rt
