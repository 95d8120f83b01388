// Ablation: runtime/scheduling model on the same HSS-ULV DAG — the paper's
// claim 2 (the runtime, not the format, causes STRUMPACK's slowdown) and its
// Sec. 5.3.3 observation that DTD's whole-graph discovery is HATRIX's own
// scaling limit.
//
// Two halves:
//
//   * Simulated (Ablations A/B): the distributed DES compares AsyncDtd vs
//     ForkJoin exec models at paper scale and sweeps the per-task discovery
//     constant; the discovery=0 row is the PTG-style (local-only task
//     generation) future improvement the paper suggests.
//
//   * Measured (Ablation D): the real shared-memory executor under its three
//     schedules — fork-join (Phased), FIFO, and the critical-path priority
//     scheduler — runs the actual ULV factorization DAG over an N sweep. Per run we time DAG
//     emission (the DTD discovery analogue: the sequential whole-graph
//     insertion every process repeats) and the in-executor discovery/
//     ready-queue work (rt::ExecutionStats::discovery_total), and report
//       share   = (emit + discovery/worker) / (emit + wall)
//       cp_util = critical_path_time / wall   (trace-derived; 1.0 = the
//                 schedule is as good as the measured chain bound allows)
//     The summary records, per executor, the largest N whose share is still
//     >= 10% — the regime where task discovery dominates useful work.
//
// --verify-dag additionally times the static race & ordering verifier
// (runtime/dag_verify.hpp) on each emitted DAG and prints an Ablation C
// table: verifier wall time vs DAG size, the overhead figure quoted in
// docs/BENCHMARKS.md. The measured half always verifies one emitted graph
// per N (cheap), so every scheduling comparison runs on a verifier-green DAG.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/bench_json.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "distsim/des.hpp"
#include "format/accessor.hpp"
#include "format/hss_builder.hpp"
#include "format/hss_builder_tasks.hpp"
#include "geometry/cluster_tree.hpp"
#include "kernels/kernel_matrix.hpp"
#include "kernels/kernels.hpp"
#include "linalg/matrix.hpp"
#include "runtime/dag_dataflow.hpp"
#include "runtime/dag_verify.hpp"
#include "runtime/thread_pool_executor.hpp"
#include "runtime/trace.hpp"
#include "ulv/hss_ulv.hpp"
#include "ulv/hss_ulv_tasks.hpp"

using namespace hatrix;

namespace {

/// One measured executor run on a freshly emitted ULV factorization DAG.
struct MeasuredRun {
  std::int64_t tasks = 0;
  std::int64_t edges = 0;
  double emit_s = 0.0;   ///< DAG emission = the DTD discovery analogue
  double wall_s = 0.0;
  double disc_s = 0.0;   ///< in-executor discovery, summed over workers
  double share = 0.0;    ///< (emit + disc/worker) / (emit + wall)
  double cp_util = 0.0;  ///< critical_path_time / wall
};

const char* kExecutors[] = {"fork-join", "fifo", "priority"};

MeasuredRun run_measured(int which, int workers, const fmt::HSSMatrix& h,
                         bool verify) {
  MeasuredRun r;
  rt::TaskGraph graph;
  WallTimer emit_timer;
  auto dag = ulv::emit_hss_ulv_dag(h, graph, /*with_work=*/true);
  r.emit_s = emit_timer.seconds();
  r.tasks = graph.num_tasks();
  r.edges = graph.num_edges();
  if (verify) (void)rt::verify_dag(graph);

  rt::ExecutionStats stats;
  switch (which) {
    case 0: {
      rt::ThreadPoolExecutor ex(workers, rt::Schedule::Phased);
      stats = ex.run(graph);
      break;
    }
    case 1: {
      rt::ThreadPoolExecutor ex(workers);
      stats = ex.run(graph);
      break;
    }
    default: {
      rt::ThreadPoolExecutor ex(workers, rt::Schedule::CriticalPath);
      ex.set_cost(&distsim::CostModel::task_flops);  // flop-true bottom levels
      stats = ex.run(graph);
      break;
    }
  }
  (void)ulv::extract_factorization(dag);

  r.wall_s = stats.wall_time;
  r.disc_s = stats.discovery_total;
  r.share = (r.emit_s + r.disc_s / workers) / (r.emit_s + r.wall_s);
  r.cp_util = rt::critical_path_time(graph, stats) / stats.wall_time;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const la::index_t leaf = cli.get_int("leaf", 256);
  const la::index_t rank = cli.get_int("rank", 100);
  auto nodes_list = cli.get_int_list("nodes", {2, 8, 32, 128});
  const bool verify = cli.has("verify-dag");
  const bool skip_sim = cli.has("skip-sim");
  auto measured_n = cli.get_int_list("measured-n", {1024, 4096, 16384});
  const la::index_t m_leaf = cli.get_int("measured-leaf", 128);
  const la::index_t m_rank = cli.get_int("measured-rank", 40);
  const la::index_t m_sample = cli.get_int("measured-sample", 200);
  const int workers = static_cast<int>(cli.get_int("workers", 4));
  const int reps = static_cast<int>(cli.get_int("reps", 2));
  const la::index_t mem_n = cli.get_int("mem-n", 8192);
  const std::string json_path = cli.get_string("json", "");
  cli.reject_unknown();

  BenchJson json("ablation_runtime");
  distsim::CostModel cost(40.0);

  if (!skip_sim) {
    std::printf("Ablation A: async vs fork-join, same DAG, same distribution\n");
    TextTable ta({"NODES", "N", "async (s)", "fork-join (s)", "fj/async"});
    for (auto nodes : nodes_list) {
      const la::index_t n = 2048 * nodes;
      fmt::HSSMatrix skel = fmt::make_hss_skeleton(n, leaf, rank);

      auto run = [&](distsim::ExecModel model, double discovery) {
        rt::TaskGraph graph;
        auto dag = ulv::emit_hss_ulv_dag(skel, graph, false);
        auto map = distsim::map_hss_row_cyclic(dag, graph, static_cast<int>(nodes));
        distsim::SimConfig cfg;
        cfg.procs = static_cast<int>(nodes);
        cfg.cores_per_proc = 48;
        cfg.model = model;
        cfg.overhead.discovery_per_task = discovery;
        return distsim::simulate(graph, map, cost, cfg);
      };
      auto async = run(distsim::ExecModel::AsyncDtd, 5e-5);
      auto fj = run(distsim::ExecModel::ForkJoin, 0.0);
      ta.add_row({std::to_string(nodes), std::to_string(n), fmt_fixed(async.makespan, 4),
                  fmt_fixed(fj.makespan, 4),
                  fmt_fixed(fj.makespan / async.makespan, 2)});
      json.row()
          .add("phase", std::string("sim_async_vs_fj"))
          .add("nodes", nodes)
          .add("n", n)
          .add("async_s", async.makespan)
          .add("forkjoin_s", fj.makespan);
    }
    std::printf("%s\n", ta.to_string().c_str());

    std::printf("Ablation B: DTD discovery cost sweep (128 nodes, N=262144)\n");
    TextTable tb({"discovery per task (s)", "sim time (s)", "overhead share"});
    {
      const la::index_t n = 262144;
      fmt::HSSMatrix skel = fmt::make_hss_skeleton(n, leaf, rank);
      for (double d : {0.0, 1e-5, 5e-5, 2e-4, 1e-3}) {
        rt::TaskGraph graph;
        auto dag = ulv::emit_hss_ulv_dag(skel, graph, false);
        auto map = distsim::map_hss_row_cyclic(dag, graph, 128);
        distsim::SimConfig cfg;
        cfg.procs = 128;
        cfg.cores_per_proc = 48;
        cfg.overhead.discovery_per_task = d;
        auto res = distsim::simulate(graph, map, cost, cfg);
        const double share = res.overhead_per_worker(cfg) / res.makespan;
        tb.add_row({fmt_sci(d), fmt_fixed(res.makespan, 4), fmt_fixed(share, 3)});
        json.row()
            .add("phase", std::string("sim_discovery_sweep"))
            .add("discovery_per_task", d)
            .add("sim_s", res.makespan)
            .add("overhead_share", share);
      }
    }
    std::printf("%s\n", tb.to_string().c_str());
    std::printf(
        "A PTG-style interface (local-only task generation) corresponds to the\n"
        "discovery=0 row — the paper's suggested future improvement.\n");

    if (verify) {
      std::printf("\nAblation C: static DAG verifier & dataflow analyzer cost "
                  "vs DAG size\n");
      TextTable tc({"N", "tasks", "edges", "crit path", "max width", "verify (ms)",
                    "analyze (ms)", "us/task", "peak bound (MB)"});
      for (auto nodes : nodes_list) {
        const la::index_t n = 2048 * nodes;
        fmt::HSSMatrix skel = fmt::make_hss_skeleton(n, leaf, rank);
        rt::TaskGraph graph;
        (void)ulv::emit_hss_ulv_dag(skel, graph, false);
        WallTimer t;
        rt::DagStats s = rt::verify_dag(graph);
        const double vms = t.seconds() * 1e3;
        t.reset();
        rt::DagDataflowReport rep = rt::analyze_dag(graph);
        const double ams = t.seconds() * 1e3;
        tc.add_row({std::to_string(n), std::to_string(s.tasks),
                    std::to_string(s.edges), std::to_string(s.critical_path),
                    std::to_string(s.max_width), fmt_fixed(vms, 3),
                    fmt_fixed(ams, 3),
                    fmt_fixed(ams * 1e3 / static_cast<double>(s.tasks), 3),
                    fmt_fixed(static_cast<double>(rep.stats.peak_bytes_serial) /
                                  1048576.0,
                              1)});
        json.row()
            .add("phase", std::string("analyzer_cost"))
            .add("n", n)
            .add("tasks", s.tasks)
            .add("edges", s.edges)
            .add("verify_ms", vms)
            .add("analyze_ms", ams)
            .add("peak_serial_bytes", rep.stats.peak_bytes_serial)
            .add("peak_any_bytes", rep.stats.peak_bytes_any);
      }
      std::printf("%s\n", tc.to_string().c_str());
    }
  }

  // -------------------------------------------------------------------
  // Ablation D: measured executors on the real ULV factorization DAG.
  std::printf("\nAblation D: measured executors, real ULV DAG (%d workers, "
              "best of %d reps)\n", workers, reps);
  TextTable td({"N", "tasks", "edges", "executor", "emit (ms)", "wall (ms)",
                "disc/wkr (ms)", "share", "cp util"});
  // share >= 10%: DAG emission + scheduler bookkeeping eat a tenth of the
  // runtime — the small-task regime where DTD overhead dominates.
  std::int64_t n_exceeds[3] = {-1, -1, -1};
  for (auto n : measured_n) {
    // Sampled O(N) construction. The measured-leaf/rank/sample knobs set the
    // task granularity: at the defaults each ULV task is a ~1 ms dense
    // kernel; shrink them (e.g. 64/8/32) for the paper's fine-grained regime
    // where discovery overhead dominates the useful work.
    geom::Domain domain = geom::grid2d(n);
    geom::ClusterTree tree(domain, m_leaf);
    auto kernel = kernels::make_kernel("yukawa");
    kernels::KernelMatrix km(*kernel, tree.points());
    fmt::KernelAccessor acc(km);
    fmt::HSSOptions opts{.leaf_size = m_leaf, .max_rank = m_rank, .tol = 0.0,
                         .sample_cols = m_sample};
    auto h = fmt::build_hss(acc, opts, workers);

    for (int which = 0; which < 3; ++which) {
      MeasuredRun best;
      for (int rep = 0; rep < reps; ++rep) {
        // Fresh emission per rep: the factorization DAG owns its state, and
        // re-deriving the graph is exactly the DTD discovery being measured.
        auto r = run_measured(which, workers, h, /*verify=*/rep == 0);
        if (rep == 0 || r.wall_s < best.wall_s) best = r;
      }
      td.add_row({std::to_string(n), std::to_string(best.tasks),
                  std::to_string(best.edges), kExecutors[which],
                  fmt_fixed(best.emit_s * 1e3, 3), fmt_fixed(best.wall_s * 1e3, 3),
                  fmt_fixed(best.disc_s / workers * 1e3, 3),
                  fmt_fixed(best.share, 3), fmt_fixed(best.cp_util, 3)});
      if (best.share >= 0.10) n_exceeds[which] = std::max(n_exceeds[which], n);
      json.row()
          .add("phase", std::string("measured"))
          .add("n", n)
          .add("executor", std::string(kExecutors[which]))
          .add("workers", static_cast<std::int64_t>(workers))
          .add("leaf", m_leaf)
          .add("rank", m_rank)
          .add("sample_cols", m_sample)
          .add("tasks", best.tasks)
          .add("edges", best.edges)
          .add("emit_s", best.emit_s)
          .add("wall_s", best.wall_s)
          .add("discovery_s", best.disc_s)
          .add("discovery_share", best.share)
          .add("cp_util", best.cp_util);
    }
  }
  std::printf("%s\n", td.to_string().c_str());

  std::printf("Discovery-dominated regime (largest N with share >= 10%%):\n");
  TextTable ts({"executor", "largest N with share >= 10%"});
  for (int which = 0; which < 3; ++which) {
    ts.add_row({kExecutors[which], std::to_string(n_exceeds[which])});
    json.row()
        .add("phase", std::string("summary"))
        .add("executor", std::string(kExecutors[which]))
        .add("n_exceeds_10pct", n_exceeds[which]);
  }
  std::printf("%s\n", ts.to_string().c_str());
  std::printf(
      "emit = sequential whole-graph task insertion (what every DTD process\n"
      "repeats); share folds it together with in-executor ready-queue work.\n"
      "cp util = critical_path_time/wall: how close the schedule runs to the\n"
      "measured chain bound (higher is better).\n");

  // -------------------------------------------------------------------
  // Ablation E: analyzer-driven early block release on the real
  // construct+factor chain. Same DAGs, same seeds; the only difference is a
  // release hook that frees retired sampling/panel blocks at their
  // statically-proven last use, so the peaks are comparable and the root
  // factor must stay bit-identical.
  std::printf("\nAblation E: early block release, construct+factor chain "
              "(N=%lld, %d workers)\n",
              static_cast<long long>(mem_n), workers);
  {
    geom::Domain domain = geom::grid2d(mem_n);
    geom::ClusterTree tree(domain, m_leaf);
    auto kernel = kernels::make_kernel("yukawa");
    kernels::KernelMatrix km(*kernel, tree.points());
    fmt::KernelAccessor acc(km);
    fmt::HSSOptions opts{.leaf_size = m_leaf, .max_rank = m_rank, .tol = 0.0,
                         .sample_cols = m_sample};

    TextTable te({"release", "build peak (MB)", "factor peak (MB)",
                  "chain peak (MB)", "root max |diff|"});
    la::Matrix roots[2];
    std::int64_t chain_peak[2] = {0, 0};
    for (int pass = 0; pass < 2; ++pass) {
      const rt::ReleaseMode mode =
          pass == 0 ? rt::ReleaseMode::None : rt::ReleaseMode::Free;
      la::reset_matrix_peak();
      auto h = fmt::build_hss(acc, opts, workers, nullptr, mode);
      const std::int64_t build_peak = la::matrix_bytes_peak();

      la::reset_matrix_peak();
      rt::TaskGraph graph;
      auto dag = ulv::emit_hss_ulv_dag(h, graph, /*with_work=*/true, mode);
      rt::ThreadPoolExecutor ex(workers);
      ex.run(graph);
      auto f = ulv::extract_factorization(dag);
      const std::int64_t factor_peak = la::matrix_bytes_peak();
      chain_peak[pass] = std::max(build_peak, factor_peak);
      roots[pass] = la::Matrix::from_view(f.root_factor().view());

      double root_diff = 0.0;
      if (pass == 1)
        for (la::index_t j = 0; j < roots[0].cols(); ++j)
          for (la::index_t i = 0; i < roots[0].rows(); ++i)
            root_diff = std::max(root_diff,
                                 std::abs(roots[0](i, j) - roots[1](i, j)));
      te.add_row({pass == 0 ? "off" : "on",
                  fmt_fixed(static_cast<double>(build_peak) / 1048576.0, 1),
                  fmt_fixed(static_cast<double>(factor_peak) / 1048576.0, 1),
                  fmt_fixed(static_cast<double>(chain_peak[pass]) / 1048576.0, 1),
                  pass == 0 ? "-" : fmt_sci(root_diff)});
      json.row()
          .add("phase", std::string("memory_release"))
          .add("n", mem_n)
          .add("release", static_cast<std::int64_t>(pass))
          .add("build_peak_bytes", build_peak)
          .add("factor_peak_bytes", factor_peak)
          .add("root_max_diff", pass == 0 ? 0.0 : root_diff);
    }
    std::printf("%s\n", te.to_string().c_str());
    std::printf("chain peak reduction: %.1f%%\n",
                100.0 * (1.0 - static_cast<double>(chain_peak[1]) /
                                   static_cast<double>(chain_peak[0])));
  }

  if (!json_path.empty()) {
    if (!json.write(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
