#include "runtime/task_graph.hpp"

#include <algorithm>

namespace hatrix::rt {

std::string node_tag(int level, std::int64_t index) {
  // Appended piecewise: GCC 12 at -O3 flags the equivalent `"(" + ... + ")"`
  // chain with a false-positive -Wrestrict.
  std::string tag = "(";
  tag += std::to_string(level);
  tag += ',';
  tag += std::to_string(index);
  tag += ')';
  return tag;
}

DataId TaskGraph::register_data(std::string name, std::int64_t bytes, int owner) {
  const DataId id = static_cast<DataId>(data_.size());
  data_.push_back({id, std::move(name), bytes, owner, false, false});
  state_.emplace_back();
  return id;
}

void TaskGraph::mark_input(DataId d) {
  HATRIX_CHECK(d >= 0 && d < static_cast<DataId>(data_.size()), "bad data id");
  data_[static_cast<std::size_t>(d)].input = true;
}

void TaskGraph::mark_output(DataId d) {
  HATRIX_CHECK(d >= 0 && d < static_cast<DataId>(data_.size()), "bad data id");
  data_[static_cast<std::size_t>(d)].output = true;
}

void TaskGraph::set_owner(DataId d, int owner) {
  HATRIX_CHECK(d >= 0 && d < static_cast<DataId>(data_.size()), "bad data id");
  data_[static_cast<std::size_t>(d)].owner = owner;
}

const DataHandle& TaskGraph::data(DataId d) const {
  HATRIX_CHECK(d >= 0 && d < static_cast<DataId>(data_.size()), "bad data id");
  return data_[static_cast<std::size_t>(d)];
}

void TaskGraph::add_edge(TaskId from, TaskId to) {
  if (from < 0 || from == to) return;
  auto& s = succ_[static_cast<std::size_t>(from)];
  if (std::find(s.begin(), s.end(), to) != s.end()) return;  // dedupe
  s.push_back(to);
  ++in_degree_[static_cast<std::size_t>(to)];
  ++num_edges_;
}

TaskId TaskGraph::insert_task(Task t) {
  const TaskId id = static_cast<TaskId>(tasks_.size());
  t.id = id;
  critical_path_cache_ = -1;
  succ_.emplace_back();
  in_degree_.push_back(0);

  for (const auto& [d, mode] : t.accesses) {
    HATRIX_CHECK(d >= 0 && d < static_cast<DataId>(data_.size()),
                 "task accesses unregistered data");
    auto& st = state_[static_cast<std::size_t>(d)];
    if (mode == Access::Read) {
      add_edge(st.last_writer, id);  // read-after-write
      st.readers_since_write.push_back(id);
    } else {
      add_edge(st.last_writer, id);  // write-after-write
      for (TaskId r : st.readers_since_write) add_edge(r, id);  // write-after-read
      st.last_writer = id;
      st.readers_since_write.clear();
    }
  }
  tasks_.push_back(std::move(t));
  return id;
}

bool TaskGraph::drop_dependency_for_test(TaskId from, TaskId to) {
  if (from < 0 || from >= num_tasks()) return false;
  auto& s = succ_[static_cast<std::size_t>(from)];
  auto it = std::find(s.begin(), s.end(), to);
  if (it == s.end()) return false;
  critical_path_cache_ = -1;
  s.erase(it);
  if (to >= 0 && to < num_tasks()) --in_degree_[static_cast<std::size_t>(to)];
  --num_edges_;
  return true;
}

bool TaskGraph::drop_access_for_test(TaskId t, DataId d) {
  if (t < 0 || t >= num_tasks()) return false;
  auto& acc = tasks_[static_cast<std::size_t>(t)].accesses;
  auto it = std::find_if(acc.begin(), acc.end(),
                         [d](const TaskAccess& a) { return a.first == d; });
  if (it == acc.end()) return false;
  acc.erase(it);
  return true;
}

void TaskGraph::add_dependency_for_test(TaskId from, TaskId to) {
  HATRIX_CHECK(from >= 0 && from < num_tasks(), "bad source task id");
  critical_path_cache_ = -1;
  succ_[static_cast<std::size_t>(from)].push_back(to);
  if (to >= 0 && to < num_tasks()) {
    ++in_degree_[static_cast<std::size_t>(to)];
    ++num_edges_;
  }
}

TaskId TaskGraph::insert_task(std::string name, std::string kind,
                              std::vector<std::int64_t> dims,
                              std::function<void()> work,
                              std::vector<TaskAccess> accesses,
                              int priority, int phase) {
  Task t;
  t.name = std::move(name);
  t.kind = std::move(kind);
  t.dims = std::move(dims);
  t.work = std::move(work);
  t.accesses = std::move(accesses);
  t.priority = priority;
  t.phase = phase;
  return insert_task(std::move(t));
}

std::int64_t TaskGraph::critical_path_length() const {
  if (critical_path_cache_ >= 0) return critical_path_cache_;
  // Tasks are inserted in a valid topological order (edges only point from
  // earlier to later insertions), so one forward sweep suffices. Test-only
  // edge surgery can splice in backward or dangling edges; those are skipped
  // here (the verifier, not this statistic, is responsible for rejecting
  // them).
  std::vector<std::int64_t> depth(tasks_.size(), 1);
  std::int64_t best = tasks_.empty() ? 0 : 1;
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    for (TaskId s : succ_[t]) {
      if (s <= static_cast<TaskId>(t) || s >= num_tasks()) continue;
      auto& d = depth[static_cast<std::size_t>(s)];
      d = std::max(d, depth[t] + 1);
      best = std::max(best, d);
    }
  }
  critical_path_cache_ = best;
  return best;
}

}  // namespace hatrix::rt
