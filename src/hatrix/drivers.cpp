#include "hatrix/drivers.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <thread>

#include "blrchol/blr_cholesky_tasks.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "format/accessor.hpp"
#include "format/blr.hpp"
#include "format/hss_builder.hpp"
#include "format/hss_builder_tasks.hpp"
#include "geometry/cluster_tree.hpp"
#include "kernels/kernel_matrix.hpp"
#include "kernels/kernels.hpp"
#include "linalg/matrix.hpp"
#include "runtime/dag_dataflow.hpp"
#include "runtime/thread_pool_executor.hpp"
#include "ulv/hss_ulv_tasks.hpp"

namespace hatrix::driver {

std::string system_name(System s) {
  switch (s) {
    case System::HatrixDTD:
      return "HATRIX-DTD";
    case System::HatrixPTG:
      return "HATRIX-PTG";
    case System::StrumpackSim:
      return "STRUMPACK";
    case System::LorapoSim:
      return "LORAPO";
    case System::DenseDplasmaSim:
      return "DPLASMA";
  }
  throw Error("unknown system");
}

SimOutcome run_simulated(System sys, const SimExperiment& cfg) {
  rt::TaskGraph graph;
  distsim::Mapping mapping;
  distsim::SimConfig sim_cfg;
  sim_cfg.procs = cfg.nodes;
  sim_cfg.cores_per_proc = cfg.cores_per_node;
  sim_cfg.network = cfg.network;
  sim_cfg.overhead = cfg.overhead;

  // Keep skeletons alive for the duration of the simulation: the DAG state
  // references them.
  fmt::HSSMatrix hss_skel;
  fmt::BLRMatrix blr_skel;

  switch (sys) {
    case System::HatrixDTD:
    case System::HatrixPTG: {
      hss_skel = fmt::make_hss_skeleton(cfg.n, cfg.leaf_size, cfg.rank);
      auto dag = ulv::emit_hss_ulv_dag(hss_skel, graph, /*with_work=*/false);
      mapping = distsim::map_hss_row_cyclic(dag, graph, cfg.nodes);
      sim_cfg.model = sys == System::HatrixPTG ? distsim::ExecModel::AsyncPtg
                                               : distsim::ExecModel::AsyncDtd;
      break;
    }
    case System::StrumpackSim: {
      hss_skel = fmt::make_hss_skeleton(cfg.n, cfg.leaf_size, cfg.rank);
      auto dag = ulv::emit_hss_ulv_dag(hss_skel, graph, /*with_work=*/false);
      mapping = distsim::map_hss_block_cyclic(dag, graph, cfg.nodes);
      sim_cfg.model = distsim::ExecModel::ForkJoin;
      // Fork-join runtimes do not pay DTD whole-graph discovery.
      sim_cfg.overhead.discovery_per_task = 0.0;
      break;
    }
    case System::LorapoSim: {
      blr_skel = fmt::make_blr_skeleton(cfg.n, cfg.leaf_size, cfg.rank);
      auto dag = blrchol::emit_blr_cholesky_dag(blr_skel, graph, /*with_work=*/false);
      mapping = distsim::map_blr_block_cyclic(dag, graph, cfg.nodes);
      sim_cfg.model = distsim::ExecModel::AsyncDtd;
      break;
    }
    case System::DenseDplasmaSim: {
      auto dag = blrchol::emit_dense_cholesky_dag({}, cfg.n, cfg.leaf_size, graph,
                                                  /*with_work=*/false);
      mapping = distsim::map_dense_block_cyclic(dag, graph, cfg.nodes);
      sim_cfg.model = distsim::ExecModel::AsyncDtd;
      break;
    }
  }

  distsim::CostModel cost(cfg.gflops_per_core);
  auto res = distsim::simulate(graph, mapping, cost, sim_cfg);

  SimOutcome out;
  out.factor_time = res.makespan;
  out.compute_per_worker = res.compute_per_worker(sim_cfg);
  out.overhead_per_worker = res.overhead_per_worker(sim_cfg);
  out.mpi_per_process = res.mpi_per_process(sim_cfg);
  out.tasks = graph.num_tasks();
  out.messages = res.messages;
  out.comm_bytes = res.bytes;
  for (const auto& t : graph.tasks()) out.flops += distsim::CostModel::task_flops(t);
  return out;
}

ConstructionOutcome run_construction(const ConstructionExperiment& cfg) {
  geom::Domain domain = geom::grid2d(cfg.n);
  geom::ClusterTree tree(domain, cfg.leaf_size);
  auto kernel = kernels::make_kernel(cfg.kernel);
  kernels::KernelMatrix km(*kernel, tree.points());
  fmt::KernelAccessor acc(km);

  const fmt::HSSOptions opts{.leaf_size = cfg.leaf_size,
                             .max_rank = cfg.max_rank,
                             .tol = cfg.tol,
                             .sample_cols = cfg.sample_cols,
                             .seed = cfg.seed,
                             .guard_tol = cfg.guard_tol,
                             .max_sample_cols = cfg.max_sample_cols};

  ConstructionOutcome out;
  rt::ThreadPoolExecutor ex(cfg.workers);
  if (cfg.verify_dag) ex.set_verify_dag(true);
  if (cfg.analyze_dag) ex.set_analyze_dag(true);
  const rt::ReleaseMode release =
      cfg.early_release ? rt::ReleaseMode::Free : rt::ReleaseMode::None;

  // Measure the matrix-allocation high water of the construct+factor chain
  // from here, so the early-release saving is visible in one number.
  la::reset_matrix_peak();

  WallTimer timer;
  rt::TaskGraph build_graph;
  fmt::HSSBuildDag build_dag =
      fmt::emit_hss_build_dag(acc, opts, build_graph, release);
  if (cfg.analyze_dag) {
    WallTimer atimer;
    const rt::DagDataflowReport rep = rt::analyze_dag(build_graph);
    out.analyze_seconds += atimer.seconds();
    out.static_peak_bytes += rep.stats.peak_bytes_serial;
  }
  ex.run(build_graph);
  const fmt::HSSBuildReport rep = fmt::build_report(build_dag);
  fmt::HSSMatrix h = fmt::extract_built_hss(build_dag);
  out.build_seconds = timer.seconds();
  out.build_tasks = build_graph.num_tasks();
  out.rank_used = h.max_rank_used();
  out.max_samples = rep.max_samples;
  out.guard_growths = rep.total_growths;
  out.rank_escapes = rep.rank_escapes;
  out.worst_residual = rep.worst_residual;

  timer.reset();
  rt::TaskGraph factor_graph;
  auto factor_dag =
      ulv::emit_hss_ulv_dag(h, factor_graph, /*with_work=*/true, release);
  if (cfg.analyze_dag) {
    WallTimer atimer;
    const rt::DagDataflowReport rep = rt::analyze_dag(factor_graph);
    out.analyze_seconds += atimer.seconds();
    out.static_peak_bytes += rep.stats.peak_bytes_serial;
  }
  ex.run(factor_graph);
  ulv::HSSULV f = ulv::extract_factorization(factor_dag);
  out.factor_seconds = timer.seconds();
  out.factor_tasks = factor_graph.num_tasks();
  out.peak_matrix_bytes = la::matrix_bytes_peak();

  Rng rng(cfg.seed + 1);
  std::vector<double> b = rng.normal_vector(cfg.n);
  out.solve_error = ulv::ulv_solve_error(h, f, b);
  return out;
}

SolveThroughputOutcome run_solve_throughput(const SolveThroughputExperiment& cfg) {
  geom::Domain domain = geom::grid2d(cfg.n);
  geom::ClusterTree tree(domain, cfg.leaf_size);
  auto kernel = kernels::make_kernel(cfg.kernel);
  kernels::KernelMatrix km(*kernel, tree.points());
  fmt::KernelAccessor acc(km);

  const fmt::HSSOptions opts{.leaf_size = cfg.leaf_size,
                             .max_rank = cfg.max_rank,
                             .sample_cols = cfg.sample_cols,
                             .seed = cfg.seed,
                             .guard_tol = cfg.guard_tol};

  SolveThroughputOutcome out;
  WallTimer timer;
  fmt::HSSMatrix h = fmt::build_hss(acc, opts);
  out.build_seconds = timer.seconds();
  out.rank_used = h.max_rank_used();

  timer.reset();
  const ulv::HSSULV f = ulv::HSSULV::factorize(h);
  out.factor_seconds = timer.seconds();

  Rng rng(cfg.seed + 1);
  const la::index_t batch = std::max<la::index_t>(1, cfg.batch);
  const auto clients = static_cast<la::index_t>(std::max(1, cfg.clients));
  // Whole panels per client (see SolveThroughputExperiment::solves).
  const la::index_t per_round = batch * clients;
  const la::index_t num_panels =
      clients *
      ((std::max<la::index_t>(1, cfg.solves) + per_round - 1) / per_round);
  out.solved_columns = num_panels * batch;
  const la::Matrix b = la::Matrix::random_normal(rng, cfg.n, out.solved_columns);

  // Panels round-robin across client threads; every client solves against
  // the one shared factorization with zero synchronization (HSSULV::solve
  // is const and keeps all workspace on the caller's stack). Whole passes
  // repeat as kSolveThroughputMinSeconds says; returns the sorted pass
  // times.
  auto run_clients = [&](const std::function<void(const la::Matrix&, la::index_t)>&
                             solve_panel) {
    std::vector<double> times;
    double total = 0.0;
    do {
      WallTimer pass;
      std::vector<std::thread> pool;
      pool.reserve(static_cast<std::size_t>(clients));
      for (la::index_t c = 0; c < clients; ++c) {
        pool.emplace_back([&, c] {
          for (la::index_t p = c; p < num_panels; p += clients) {
            const la::Matrix panel =
                la::Matrix::from_view(b.block(0, p * batch, cfg.n, batch));
            solve_panel(panel, p);
          }
        });
      }
      for (auto& t : pool) t.join();
      times.push_back(pass.seconds());
      total += times.back();
    } while (total < kSolveThroughputMinSeconds || times.size() < 5);
    std::sort(times.begin(), times.end());
    return times;
  };
  // Nearest-rank quantile of sorted values.
  auto quantile = [](const std::vector<double>& v, double q) {
    return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5)];
  };
  auto rate = [&](double seconds) {
    return seconds > 0.0 ? static_cast<double>(out.solved_columns) / seconds : 0.0;
  };

  std::vector<la::Matrix> blocked(static_cast<std::size_t>(num_panels));
  const std::vector<double> blocked_times =
      run_clients([&](const la::Matrix& panel, la::index_t p) {
        blocked[static_cast<std::size_t>(p)] = f.solve(panel);
      });
  out.passes = static_cast<int>(blocked_times.size());
  out.blocked_seconds = quantile(blocked_times, 0.5);
  out.solves_per_second = rate(out.blocked_seconds);
  out.solves_per_second_q1 = rate(quantile(blocked_times, 0.75));
  out.solves_per_second_q3 = rate(quantile(blocked_times, 0.25));

  if (cfg.compare_oracle) {
    std::vector<la::Matrix> oracle(static_cast<std::size_t>(num_panels));
    out.oracle_seconds = quantile(run_clients([&](const la::Matrix& panel, la::index_t p) {
                                    oracle[static_cast<std::size_t>(p)] =
                                        f.solve_columnwise(panel);
                                  }),
                                  0.5);
    out.speedup_vs_oracle =
        out.blocked_seconds > 0.0 ? out.oracle_seconds / out.blocked_seconds : 0.0;
    for (la::index_t p = 0; p < num_panels; ++p) {
      const la::Matrix& xb = blocked[static_cast<std::size_t>(p)];
      const la::Matrix& xo = oracle[static_cast<std::size_t>(p)];
      for (la::index_t j = 0; j < xb.cols(); ++j)
        for (la::index_t i = 0; i < xb.rows(); ++i)
          out.max_col_diff =
              std::max(out.max_col_diff, std::abs(xb(i, j) - xo(i, j)));
    }
  }

  std::vector<double> b0(static_cast<std::size_t>(cfg.n));
  for (la::index_t i = 0; i < cfg.n; ++i) b0[static_cast<std::size_t>(i)] = b(i, 0);
  out.solve_error = ulv::ulv_solve_error(h, f, b0);
  return out;
}

}  // namespace hatrix::driver
