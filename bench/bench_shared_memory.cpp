// Shared-memory execution of the real HSS-ULV task DAG (Fig. 8) on this
// machine: sequential vs asynchronous runtime vs fork-join runtime, with the
// runtime's own instrumentation (compute vs overhead per worker).
//
// This is the non-simulated counterpart of the cluster experiments: the same
// emit_hss_ulv_dag tasks execute real kernels through the thread-pool
// executor, and the result is verified against the sequential factorization.
// Optional outputs: --trace-json FILE dumps a Chrome/Perfetto trace of the
// async execution; --dot FILE dumps the DAG as Graphviz (small N advised);
// --verify-dag statically verifies the DAG (runtime/dag_verify.hpp) before
// each executor runs it.
#include <cmath>
#include <cstdio>
#include <fstream>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "format/accessor.hpp"
#include "format/hss_builder.hpp"
#include "geometry/cluster_tree.hpp"
#include "kernels/kernel_matrix.hpp"
#include "kernels/kernels.hpp"
#include "runtime/thread_pool_executor.hpp"
#include "ulv/hss_ulv_tasks.hpp"

using namespace hatrix;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const la::index_t n = cli.get_int("n", 8192);
  const la::index_t leaf = cli.get_int("leaf", 256);
  const la::index_t rank = cli.get_int("rank", 60);
  const int workers = static_cast<int>(cli.get_int("workers", 4));
  // Bare `--trace-json` / `--dot` (no value) fall back to default filenames.
  auto out_path = [&](const char* flag, const char* fallback) {
    std::string v = cli.get_string(flag, "");
    return v == "true" ? std::string(fallback) : v;
  };
  const std::string trace_json = out_path("trace-json", "trace.json");
  const std::string dot_file = out_path("dot", "dag.dot");
  const bool verify = cli.has("verify-dag");
  cli.reject_unknown();

  std::printf("Shared-memory HSS-ULV: N=%lld leaf=%lld rank=%lld, %d workers\n",
              static_cast<long long>(n), static_cast<long long>(leaf),
              static_cast<long long>(rank), workers);

  geom::Domain domain = geom::grid2d(n);
  geom::ClusterTree tree(domain, leaf);
  auto kernel = kernels::make_kernel("yukawa");
  kernels::KernelMatrix km(*kernel, tree.points());
  fmt::KernelAccessor acc(km);

  WallTimer timer;
  auto h = fmt::build_hss(acc, {.leaf_size = leaf, .max_rank = rank,
                                .sample_cols = 512});
  std::printf("construction: %.3f s (max rank used %lld)\n", timer.seconds(),
              static_cast<long long>(h.max_rank_used()));

  TextTable table({"executor", "wall (s)", "compute/worker (s)",
                   "overhead/worker (s)", "tasks"});

  timer.reset();
  auto f_seq = ulv::HSSULV::factorize(h);
  table.add_row({"sequential", fmt_fixed(timer.seconds(), 4), "-", "-", "-"});

  Rng rng(7);
  std::vector<double> b = rng.normal_vector(n);
  auto x_ref = f_seq.solve(b);

  auto run_with = [&](const char* name, rt::ThreadPoolExecutor& executor) {
    if (verify) executor.set_verify_dag(true);
    rt::TaskGraph graph;
    auto dag = ulv::emit_hss_ulv_dag(h, graph, /*with_work=*/true);
    WallTimer t;
    auto stats = executor.run(graph);
    auto f = ulv::extract_factorization(dag);
    const double wall = t.seconds();
    if (std::string(name) == "async-dtd") {
      if (!trace_json.empty()) {
        std::ofstream out(trace_json);
        out << rt::to_chrome_trace(graph, stats);
        std::printf("  wrote Chrome trace to %s\n", trace_json.c_str());
      }
      if (!dot_file.empty()) {
        std::ofstream out(dot_file);
        out << rt::to_dot(graph);
        std::printf("  wrote DAG to %s\n", dot_file.c_str());
      }
    }
    // Verify the parallel result against the sequential factorization.
    auto x = f.solve(b);
    double err = 0.0, den = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      err += (x[i] - x_ref[i]) * (x[i] - x_ref[i]);
      den += x_ref[i] * x_ref[i];
    }
    std::printf("  %s vs sequential solve: rel diff %.2e\n", name,
                std::sqrt(err / den));
    table.add_row({name, fmt_fixed(wall, 4),
                   fmt_sci(stats.compute_total / stats.workers),
                   fmt_sci(stats.overhead_total / stats.workers),
                   std::to_string(graph.num_tasks())});
  };

  {
    rt::ThreadPoolExecutor ex(workers);
    run_with("async-dtd", ex);
  }
  {
    rt::ThreadPoolExecutor ex(workers, rt::Schedule::Phased);
    run_with("fork-join", ex);
  }

  std::printf("%s\n", table.to_string().c_str());
  return 0;
}
