#include "runtime/dag_dataflow.hpp"

#include <algorithm>

#include "runtime/dag_detail.hpp"

namespace hatrix::rt {

using detail::Event;
using detail::task_label;

namespace {

std::string data_label(const TaskGraph& g, DataId d) {
  return "\"" + g.data(d).name + "\" (data #" + std::to_string(d) + ")";
}

ReleasePlan release_plan(const TaskGraph& graph,
                         const std::vector<std::vector<Event>>& ev) {
  ReleasePlan plan;
  plan.initial_uses.assign(graph.data().size(), 0);
  plan.task_data.assign(static_cast<std::size_t>(graph.num_tasks()), {});
  for (std::size_t d = 0; d < ev.size(); ++d) {
    if (graph.data()[d].output) continue;  // outputs are never released
    TaskId prev = -1;
    for (const Event& e : ev[d]) {
      if (e.task == prev) continue;  // a task's accesses are adjacent
      prev = e.task;
      ++plan.initial_uses[d];
      plan.task_data[static_cast<std::size_t>(e.task)].push_back(
          static_cast<DataId>(d));
    }
  }
  return plan;
}

}  // namespace

DagUseBeforeDefError::DagUseBeforeDefError(TaskId t, std::string t_name,
                                           DataId res, std::string res_name)
    : Error("dag_dataflow: use before def — task " + t_name + " (#" +
            std::to_string(t) + ") reads resource \"" + res_name + "\" (data #" +
            std::to_string(res) +
            ") which no earlier task writes and which is not marked a graph "
            "input (TaskGraph::mark_input)"),
      task(t),
      resource(res),
      task_name(std::move(t_name)),
      resource_name(std::move(res_name)) {}

ReleasePlan release_plan(const TaskGraph& graph) {
  return release_plan(graph, detail::event_chains(graph));
}

DagDataflowReport analyze_dag(const TaskGraph& graph) {
  const auto n = static_cast<std::size_t>(graph.num_tasks());
  const auto nd = graph.data().size();
  const auto ev = detail::event_chains(graph);

  DagDataflowReport rep;
  rep.plan = release_plan(graph, ev);
  rep.stats.tasks = graph.num_tasks();
  rep.stats.edges = graph.num_edges();
  rep.lifetimes.resize(nd);
  for (std::size_t d = 0; d < nd; ++d)
    rep.lifetimes[d].data = static_cast<DataId>(d);

  // --- Depth/width statistics over insertion order (topological; the
  // test-only backward splices are dropped).
  const detail::OrderedPreds op = detail::ordered_preds(graph);
  detail::fill_shape(op, rep.stats);

  // --- Def-use chains: use-before-def (fatal), write-after-last-read, dead
  // stores. A value is an (producer task, handle) pair; "dead" means no task
  // ever consumes it and the handle is not a graph output.
  std::vector<std::vector<std::pair<TaskId, bool>>> dead_writes(n);
  auto record_write = [&](TaskId t, DataId d) {
    dead_writes[static_cast<std::size_t>(t)].emplace_back(d, false);
  };
  auto mark_dead = [&](TaskId t, DataId d) {
    for (auto& [res, dead] : dead_writes[static_cast<std::size_t>(t)])
      if (res == d) dead = true;
  };

  for (std::size_t d = 0; d < nd; ++d) {
    const auto& chain = ev[d];
    if (chain.empty()) continue;
    const DataHandle& h = graph.data()[d];

    auto& life = rep.lifetimes[d];
    TaskId def = -1;        // first writing task
    TaskId producer = -1;   // task that produced the current value
    Access producer_mode = Access::Write;
    bool consumed = true;   // current value has been read (or none exists)

    for (const Event& e : chain) {
      if (e.task != life.last_use) ++life.uses;  // a task's accesses are adjacent
      life.last_use = e.task;
      if (e.mode == Access::Read) {
        if (def < 0 && !h.input)
          throw DagUseBeforeDefError(
              e.task, graph.tasks()[static_cast<std::size_t>(e.task)].name,
              static_cast<DataId>(d), h.name);
        consumed = true;
      } else {
        // ReadWrite consumes the prior value (it reads before mutating); a
        // pure Write clobbers it, so an unconsumed prior value is wasted.
        if (e.mode == Access::Write && producer >= 0 && !consumed) {
          mark_dead(producer, static_cast<DataId>(d));
          rep.warnings.push_back(
              {DagWarningKind::WriteAfterLastRead, e.task, static_cast<DataId>(d),
               graph.tasks()[static_cast<std::size_t>(e.task)].name, h.name,
               "dag_dataflow: task " + task_label(graph, e.task) +
                   " overwrites resource " + data_label(graph, static_cast<DataId>(d)) +
                   " whose value from " + task_label(graph, producer) +
                   " was never read"});
        }
        if (def < 0) def = e.task;
        producer = e.task;
        producer_mode = e.mode;
        consumed = false;
        record_write(e.task, static_cast<DataId>(d));
      }
    }

    life.def = def;

    if (!consumed && producer >= 0 && !h.output) {
      // A trailing non-def ReadWrite is an in-place update chain whose
      // final state the caller inspects directly (tile-Cholesky panels,
      // rotated-buffer clears): not a dead store. The def itself, or a pure
      // Write, produced a value nothing will ever see.
      const bool exempt = producer != def && producer_mode == Access::ReadWrite;
      if (!exempt) {
        mark_dead(producer, static_cast<DataId>(d));
        rep.warnings.push_back(
            {DagWarningKind::DeadStore, producer, static_cast<DataId>(d),
             graph.tasks()[static_cast<std::size_t>(producer)].name, h.name,
             "dag_dataflow: dead store — the final value of resource " +
                 data_label(graph, static_cast<DataId>(d)) + " written by " +
                 task_label(graph, producer) +
                 " is never read and the handle is not marked a graph output "
                 "(TaskGraph::mark_output)"});
      }
    }
  }

  // --- Dead tasks: every produced value is dead and no write is an
  // in-place (non-def ReadWrite) update. Reads alone never keep a task
  // alive — a task whose outputs all go unread did nothing observable.
  for (std::size_t t = 0; t < n; ++t) {
    const auto& writes = dead_writes[t];
    if (writes.empty()) continue;
    bool all_dead = true;
    for (const auto& [d, dead] : writes)
      if (!dead) {
        all_dead = false;
        break;
      }
    if (!all_dead) continue;
    rep.warnings.push_back(
        {DagWarningKind::DeadTask, static_cast<TaskId>(t), writes.front().first,
         graph.tasks()[t].name, graph.data(writes.front().first).name,
         "dag_dataflow: dead task — every value " +
             task_label(graph, static_cast<TaskId>(t)) +
             " produces is never consumed"});
  }

  // --- Zero-byte handles poison every byte statistic downstream.
  for (std::size_t d = 0; d < nd; ++d) {
    if (ev[d].empty() || graph.data()[d].bytes > 0) continue;
    rep.warnings.push_back(
        {DagWarningKind::ZeroBytes, -1, static_cast<DataId>(d), "",
         graph.data()[d].name,
         "dag_dataflow: resource " + data_label(graph, static_cast<DataId>(d)) +
             " is accessed but registered with bytes == 0 — peak-memory and "
             "traffic accounting undercounts it"});
  }

  // --- Exact peak along the serial insertion order: a handle materializes
  // at its first touch (inputs at time zero) and retires when its last
  // accessor finishes, as the release plan counts them down; outputs are
  // not in the plan and never retire.
  std::vector<int> remaining = rep.plan.initial_uses;
  std::vector<char> live(nd, 0);
  std::int64_t resident = 0;
  for (std::size_t d = 0; d < nd; ++d) {
    if (ev[d].empty()) continue;
    rep.stats.data_bytes += graph.data()[d].bytes;
    if (graph.data()[d].input) {
      live[d] = 1;
      resident += graph.data()[d].bytes;
    }
  }
  std::int64_t peak = resident;
  for (std::size_t t = 0; t < n; ++t) {
    for (const auto& [d, mode] : graph.tasks()[t].accesses) {
      (void)mode;
      const auto di = static_cast<std::size_t>(d);
      if (!live[di]) {
        live[di] = 1;
        resident += graph.data()[di].bytes;
      }
    }
    peak = std::max(peak, resident);
    for (DataId d : rep.plan.task_data[t]) {
      const auto di = static_cast<std::size_t>(d);
      if (--remaining[di] == 0) {
        resident -= graph.data()[di].bytes;
        live[di] = 0;
      }
    }
  }
  rep.stats.peak_bytes_serial = peak;

  // --- Peak bound over any edge-consistent schedule, from the ancestor
  // sets: handle h can be live while task t runs unless t provably precedes
  // h's materialization (t ≺ def(h)) or h is provably retired (every
  // accessor ≺ t, and h is neither an output nor touched by t itself).
  const detail::AncestorSets anc(op);
  for (std::size_t t = 0; t < n; ++t) {
    const auto tid = static_cast<TaskId>(t);
    std::int64_t r = 0;
    for (std::size_t d = 0; d < nd; ++d) {
      if (ev[d].empty()) continue;
      const DataHandle& h = graph.data()[d];
      const TaskId def = rep.lifetimes[d].def;
      if (!h.input && def >= 0 && def != tid && anc.precedes(tid, def))
        continue;  // not yet materialized while t runs
      if (!h.output &&
          std::all_of(ev[d].begin(), ev[d].end(), [&](const Event& e) {
            return e.task != tid && anc.precedes(e.task, tid);
          }))
        continue;  // retired before t runs
      r += h.bytes;
    }
    rep.stats.peak_bytes_any = std::max(rep.stats.peak_bytes_any, r);
  }
  return rep;
}

bool analyze_dag_default() {
  return detail::env_flag_default("HATRIX_ANALYZE_DAG");
}

}  // namespace hatrix::rt
