#include "runtime/trace.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "runtime/dag_verify.hpp"

namespace hatrix::rt {

std::string validate_trace(const TaskGraph& graph, const ExecutionStats& stats) {
  const auto n = static_cast<std::size_t>(graph.num_tasks());
  std::vector<int> runs(n, 0);
  std::vector<double> end_time(n, 0.0);
  for (const auto& tr : stats.traces) {
    if (tr.task < 0 || static_cast<std::size_t>(tr.task) >= n)
      return "trace references unknown task " + std::to_string(tr.task);
    ++runs[static_cast<std::size_t>(tr.task)];
    end_time[static_cast<std::size_t>(tr.task)] = tr.end;
    if (tr.end < tr.start) return "task " + std::to_string(tr.task) + " ends before it starts";
  }
  for (std::size_t t = 0; t < n; ++t)
    if (runs[t] != 1)
      return "task " + std::to_string(t) + " ran " + std::to_string(runs[t]) +
             " times";

  std::vector<double> start_time(n, 0.0);
  for (const auto& tr : stats.traces)
    start_time[static_cast<std::size_t>(tr.task)] = tr.start;
  for (std::size_t t = 0; t < n; ++t) {
    for (TaskId s : graph.successors()[t]) {
      // Allow a small clock-resolution slack.
      if (start_time[static_cast<std::size_t>(s)] + 1e-9 < end_time[t])
        return "task " + std::to_string(s) + " started before predecessor " +
               std::to_string(t) + " finished";
    }
  }

  // Per-worker trace streams must be disjoint: one thread cannot run two
  // task bodies at once, so overlapping intervals on the same worker id mean
  // a worker attribution or stamping bug.
  std::map<int, std::vector<const TaskTrace*>> by_worker;
  for (const auto& tr : stats.traces) by_worker[tr.worker].push_back(&tr);
  for (auto& [worker, trs] : by_worker) {
    std::sort(trs.begin(), trs.end(), [](const TaskTrace* a, const TaskTrace* b) {
      return a->start < b->start;
    });
    for (std::size_t i = 1; i < trs.size(); ++i) {
      if (trs[i]->start + 1e-9 < trs[i - 1]->end)
        return "tasks " + std::to_string(trs[i - 1]->task) + " and " +
               std::to_string(trs[i]->task) + " overlap on worker " +
               std::to_string(worker);
    }
  }

  // The discovery timers only ever accumulate time the workers actually
  // spent, so the total is bounded by the workers' wall-clock budget.
  if (stats.discovery_total < 0.0)
    return "negative discovery time " + std::to_string(stats.discovery_total);
  if (stats.discovery_total >
      stats.wall_time * static_cast<double>(stats.workers) + 1e-6)
    return "discovery time " + std::to_string(stats.discovery_total) +
           " exceeds the worker wall-clock budget " +
           std::to_string(stats.wall_time * stats.workers);
  double worker_sum = 0.0;
  for (double d : stats.worker_discovery) {
    if (d < 0.0) return "negative per-worker discovery time";
    worker_sum += d;
  }
  if (!stats.worker_discovery.empty() &&
      std::abs(worker_sum - stats.discovery_total) > 1e-6)
    return "per-worker discovery times do not sum to discovery_total";
  return "";
}

double critical_path_time(const TaskGraph& graph, const ExecutionStats& stats) {
  const auto n = static_cast<std::size_t>(graph.num_tasks());
  std::vector<double> dur(n, 0.0);
  for (const auto& tr : stats.traces)
    if (tr.task >= 0 && static_cast<std::size_t>(tr.task) < n)
      dur[static_cast<std::size_t>(tr.task)] = tr.duration();
  const auto bl = bottom_levels(
      graph, [&](const Task& t) { return dur[static_cast<std::size_t>(t.id)]; });
  return bl.empty() ? 0.0 : *std::max_element(bl.begin(), bl.end());
}

std::string to_chrome_trace(const TaskGraph& graph, const ExecutionStats& stats) {
  std::ostringstream out;
  out << "[";
  bool first = true;
  for (const auto& tr : stats.traces) {
    if (tr.task < 0) continue;
    const Task& task = graph.tasks()[static_cast<std::size_t>(tr.task)];
    if (!first) out << ",";
    first = false;
    // Durations in microseconds, as the trace-event format expects.
    out << "{\"name\":\"" << task.name << "\",\"cat\":\"" << task.kind
        << "\",\"ph\":\"X\",\"ts\":" << tr.start * 1e6
        << ",\"dur\":" << tr.duration() * 1e6 << ",\"pid\":0,\"tid\":" << tr.worker
        << "}";
  }
  out << "]";
  return out.str();
}

std::string to_dot(const TaskGraph& graph) {
  // Stable colors per kind so POTRF/TRSM/... are visually grouped as in the
  // paper's Fig. 6.
  static const char* palette[] = {"lightblue", "lightgreen", "salmon",
                                  "gold",      "plum",       "lightgray"};
  std::map<std::string, const char*> color;
  std::ostringstream out;
  out << "digraph tasks {\n  rankdir=TB;\n";
  for (const auto& t : graph.tasks()) {
    if (color.find(t.kind) == color.end())
      color[t.kind] = palette[color.size() % 6];
    out << "  t" << t.id << " [label=\"" << (t.name.empty() ? t.kind : t.name)
        << "\",style=filled,fillcolor=" << color[t.kind] << "];\n";
  }
  for (std::size_t u = 0; u < graph.tasks().size(); ++u)
    for (TaskId s : graph.successors()[u]) out << "  t" << u << " -> t" << s << ";\n";
  out << "}\n";
  return out.str();
}

}  // namespace hatrix::rt
