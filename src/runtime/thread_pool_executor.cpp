#include "runtime/thread_pool_executor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/dag_dataflow.hpp"

namespace hatrix::rt {

namespace {

/// One ready task plus its schedule key (stored to avoid re-indexing under
/// the heap lock).
struct ReadyEntry {
  double key = 0.0;
  TaskId id = -1;
};

/// Heap order: larger key first; earlier insertion breaks ties so
/// single-worker execution is deterministic and stays close to the DTD
/// submission order.
struct EntryLess {
  bool operator()(const ReadyEntry& a, const ReadyEntry& b) const {
    if (a.key != b.key) return a.key < b.key;
    return a.id > b.id;
  }
};

/// A ready set: a mutex-guarded binary max-heap. Owner and thieves both pop
/// the highest-key entry — stealing the *best* task of the victim (not the
/// worst, as classic bottom-stealing would) is what keeps the critical path
/// moving when the owner is stuck inside a long task body.
struct ReadyHeap {
  std::mutex mu;
  std::vector<ReadyEntry> heap;

  void push(const std::vector<ReadyEntry>& entries) {
    std::lock_guard<std::mutex> lock(mu);
    for (const ReadyEntry& e : entries) {
      heap.push_back(e);
      std::push_heap(heap.begin(), heap.end(), EntryLess{});
    }
  }

  bool pop(ReadyEntry& out) {
    std::lock_guard<std::mutex> lock(mu);
    if (heap.empty()) return false;
    std::pop_heap(heap.begin(), heap.end(), EntryLess{});
    out = heap.back();
    heap.pop_back();
    return true;
  }
};

}  // namespace

double default_task_cost(const Task& t) {
  double c = 1.0;
  for (std::int64_t d : t.dims) c *= std::max(1.0, static_cast<double>(d));
  return c;
}

ThreadPoolExecutor::ThreadPoolExecutor(int num_workers, Schedule schedule)
    : num_workers_(num_workers),
      schedule_(schedule),
      verify_dag_(verify_dag_default()),
      analyze_dag_(analyze_dag_default()) {
  HATRIX_CHECK(num_workers >= 1, "executor needs at least one worker");
}

ExecutionStats ThreadPoolExecutor::run(const TaskGraph& graph,
                                       std::exception_ptr* error_out) {
  // A malformed or racy graph is a programming error, not a task failure:
  // it throws before any work runs and never lands in `error_out`.
  if (verify_dag_) (void)verify_dag(graph);
  if (analyze_dag_) (void)analyze_dag(graph);
  const auto n = static_cast<std::size_t>(graph.num_tasks());
  const auto nw = static_cast<std::size_t>(num_workers_);
  const auto& tasks = graph.tasks();
  const bool phased = schedule_ == Schedule::Phased;
  if (phased)
    for (std::size_t t = 0; t < n; ++t)
      for (TaskId s : graph.successors()[t])
        HATRIX_CHECK(tasks[static_cast<std::size_t>(s)].phase >= tasks[t].phase,
                     "phased schedule: dependency crosses phases backwards");
  ExecutionStats stats;
  stats.workers = num_workers_;
  stats.traces.resize(n);
  stats.worker_discovery.assign(nw, 0.0);
  if (n == 0) return stats;

  const auto t0 = std::chrono::steady_clock::now();
  auto now_seconds = [&t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };

  // Schedule setup is scheduler work, charged to the discovery timer of
  // worker 0 (the calling thread performs it).
  std::vector<double> key;
  if (schedule_ == Schedule::CriticalPath) {
    key = bottom_levels(graph, cost_ ? cost_ : TaskCostFn(&default_task_cost));
  } else {
    key.reserve(n);
    for (const Task& t : tasks) key.push_back(t.priority);
  }
  std::vector<std::atomic<int>> remaining(n);
  for (std::size_t t = 0; t < n; ++t)
    remaining[t].store(graph.in_degree()[t], std::memory_order_relaxed);

  // Phased: a barrier is one more dependency. Every task past the lowest
  // phase holds one extra count in `remaining`, and the last task of a phase
  // to finish releases that count for every task of the next phase.
  std::vector<std::size_t> phase_of;               // task -> phase rank
  std::vector<std::vector<TaskId>> phase_tasks;    // phase rank -> tasks
  if (phased) {
    std::vector<int> phases;
    phases.reserve(n);
    for (const Task& t : tasks) phases.push_back(t.phase);
    std::sort(phases.begin(), phases.end());
    phases.erase(std::unique(phases.begin(), phases.end()), phases.end());
    phase_of.resize(n);
    phase_tasks.resize(phases.size());
    for (std::size_t t = 0; t < n; ++t) {
      const auto r = static_cast<std::size_t>(
          std::lower_bound(phases.begin(), phases.end(), tasks[t].phase) -
          phases.begin());
      phase_of[t] = r;
      phase_tasks[r].push_back(static_cast<TaskId>(t));
      if (r > 0) remaining[t].fetch_add(1, std::memory_order_relaxed);
    }
  }
  std::vector<std::atomic<std::size_t>> phase_left(phase_tasks.size());
  for (std::size_t r = 0; r < phase_tasks.size(); ++r)
    phase_left[r].store(phase_tasks[r].size(), std::memory_order_relaxed);

  // Last-use early release: when the graph carries a release hook, seed a
  // refcount per handle from the static release schedule and fire the hook
  // the moment the last accessor's body has completed. fetch_sub with
  // acq_rel gives the hook a happens-before edge over every access.
  const bool do_release = static_cast<bool>(graph.release_hook());
  const ReleasePlan plan = do_release ? release_plan(graph) : ReleasePlan{};
  std::vector<std::atomic<int>> release_remaining(plan.initial_uses.size());
  for (std::size_t d = 0; d < plan.initial_uses.size(); ++d)
    release_remaining[d].store(plan.initial_uses[d], std::memory_order_relaxed);
  auto release_after = [&](TaskId id) {
    if (!do_release) return;
    for (DataId d : plan.task_data[static_cast<std::size_t>(id)])
      if (release_remaining[static_cast<std::size_t>(d)].fetch_sub(
              1, std::memory_order_acq_rel) == 1)
        graph.release_hook()(d);
  };

  // One shared ready heap, or one per worker under CriticalPath. Sources
  // are seeded round-robin so every heap starts with local work.
  const std::size_t nheaps = schedule_ == Schedule::CriticalPath ? nw : 1;
  std::vector<ReadyHeap> heaps(nheaps);
  std::atomic<std::int64_t> ready_count{0};
  {
    std::size_t next = 0;
    for (std::size_t t = 0; t < n; ++t) {
      if (remaining[t].load(std::memory_order_relaxed) != 0) continue;
      heaps[next % nheaps].heap.push_back({key[t], static_cast<TaskId>(t)});
      ++next;
    }
    for (auto& h : heaps) std::make_heap(h.heap.begin(), h.heap.end(), EntryLess{});
    ready_count.store(static_cast<std::int64_t>(next), std::memory_order_relaxed);
  }
  stats.worker_discovery[0] += now_seconds();

  std::atomic<std::size_t> completed{0};
  std::atomic<bool> stop{false};
  std::mutex err_mu;
  std::exception_ptr first_error;
  // Idle coordination: workers sleep here when every heap looks empty. The
  // empty lock/unlock before notify_all closes the classic check-then-sleep
  // window against the atomic predicate reads.
  std::mutex idle_mu;
  std::condition_variable idle_cv;
  auto wake_all = [&] {
    { std::lock_guard<std::mutex> lock(idle_mu); }
    idle_cv.notify_all();
  };

  auto worker_fn = [&](int worker_id) {
    const auto w = static_cast<std::size_t>(worker_id);
    ReadyHeap& own = heaps[w % nheaps];
    // Tasks one completion makes ready, pushed under a single heap lock.
    std::vector<ReadyEntry> newly_ready;
    // Ready-set / dependency-management time this worker accumulates — the
    // measured DTD discovery overhead. Idle waiting is deliberately
    // excluded; overhead_total already covers it.
    double my_discovery = 0.0;
    auto count_down = [&](TaskId s) {
      if (remaining[static_cast<std::size_t>(s)].fetch_sub(
              1, std::memory_order_acq_rel) == 1)
        newly_ready.push_back({key[static_cast<std::size_t>(s)], s});
    };
    for (;;) {
      if (stop.load(std::memory_order_acquire)) break;
      if (completed.load(std::memory_order_acquire) == n) break;

      // Pop locally, else steal the victim's highest-key task.
      const double t_pop = now_seconds();
      ReadyEntry entry;
      bool got = own.pop(entry);
      for (std::size_t i = 1; !got && i < nheaps; ++i)
        got = heaps[(w + i) % nheaps].pop(entry);
      if (got) ready_count.fetch_sub(1, std::memory_order_acq_rel);
      my_discovery += now_seconds() - t_pop;

      if (!got) {
        std::unique_lock<std::mutex> lock(idle_mu);
        idle_cv.wait(lock, [&] {
          return stop.load(std::memory_order_acquire) ||
                 completed.load(std::memory_order_acquire) == n ||
                 ready_count.load(std::memory_order_acquire) > 0;
        });
        continue;
      }

      const auto ti = static_cast<std::size_t>(entry.id);
      auto& trace = stats.traces[ti];
      trace.task = entry.id;
      trace.worker = worker_id;
      trace.start = now_seconds();
      if (tasks[ti].work) {
        try {
          tasks[ti].work();
        } catch (...) {
          // Stamp the end time before recording the error: the failing
          // task's trace must report a real (non-negative) duration so the
          // compute_total/overhead accounting stays meaningful.
          trace.end = now_seconds();
          {
            std::lock_guard<std::mutex> lock(err_mu);
            if (!first_error) first_error = std::current_exception();
          }
          stop.store(true, std::memory_order_release);
          wake_all();
          break;
        }
      }
      trace.end = now_seconds();
      release_after(entry.id);

      // Release dependents (and, at the end of a phase, the next phase's
      // barrier count) into this worker's heap — locality: the successor's
      // inputs were just produced here — and publish completion.
      const double t_rel = now_seconds();
      newly_ready.clear();
      for (TaskId s : graph.successors()[ti]) count_down(s);
      if (phased) {
        const std::size_t r = phase_of[ti];
        if (phase_left[r].fetch_sub(1, std::memory_order_acq_rel) == 1 &&
            r + 1 < phase_tasks.size())
          for (TaskId s : phase_tasks[r + 1]) count_down(s);
      }
      if (!newly_ready.empty()) {
        own.push(newly_ready);
        ready_count.fetch_add(static_cast<std::int64_t>(newly_ready.size()),
                              std::memory_order_acq_rel);
      }
      const std::size_t done = completed.fetch_add(1, std::memory_order_acq_rel) + 1;
      if (!newly_ready.empty() || done == n) wake_all();
      my_discovery += now_seconds() - t_rel;
    }
    stats.worker_discovery[w] += my_discovery;
  };

  std::vector<std::thread> workers;
  workers.reserve(nw);
  for (int w = 0; w < num_workers_; ++w) workers.emplace_back(worker_fn, w);
  for (auto& t : workers) t.join();

  stats.wall_time = now_seconds();
  for (const auto& tr : stats.traces) stats.compute_total += tr.duration();
  stats.overhead_total = stats.wall_time * num_workers_ - stats.compute_total;
  for (double d : stats.worker_discovery) stats.discovery_total += d;

  if (first_error) {
    if (error_out != nullptr) {
      *error_out = first_error;
      return stats;
    }
    std::rethrow_exception(first_error);
  }
  return stats;
}

}  // namespace hatrix::rt
