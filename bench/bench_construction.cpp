// Construction-phase scaling: the HSS build expressed as a task graph
// (COMPRESS / TRANSFER / MERGE_SAMPLE per node, dependencies through the
// cluster tree) executed by the asynchronous runtime at increasing worker
// counts, against the ULV factorization of the same matrix. Before PR 3 the
// construction was the pipeline's only serial stage; this bench reports the
// compress-vs-factor wall-time split and the achieved rank so the
// construction phase can be tracked the same way Figs. 9-12 track the
// factorization.
//
//   ./bench_construction [--n 8192] [--leaf 256] [--rank 80] [--tol 0]
//                        [--kernel yukawa] [--samples 512] [--guard-tol 1e-4]
//                        [--max-workers 8] [--csv] [--verify-dag]
//                        [--analyze-dag] [--release]
//
// --verify-dag statically verifies both task graphs (construction and
// factorization) against their declared access sets before execution
// (runtime/dag_verify.hpp): any unordered conflicting task pair aborts the
// run with a typed DagRaceError instead of racing.
//
// --analyze-dag additionally runs the dataflow & lifetime analyzer
// (runtime/dag_dataflow.hpp) on both graphs and reports its cost and the
// static peak-bytes bound; --release frees retired sampling/panel blocks at
// their statically-proven last use, shrinking the measured peak.
//
// Workers sweep 1, 2, 4, ... up to --max-workers; speedup is relative to
// the 1-worker run of the same DAG, which is what the sequential builder
// runs.
#include <cstdio>
#include <string>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "hatrix/drivers.hpp"

using namespace hatrix;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  driver::ConstructionExperiment cfg;
  cfg.n = cli.get_int("n", 8192);
  cfg.leaf_size = cli.get_int("leaf", 256);
  cfg.max_rank = cli.get_int("rank", 80);
  cfg.tol = cli.get_double("tol", 0.0);
  cfg.kernel = cli.get_string("kernel", "yukawa");
  cfg.sample_cols = cli.get_int("samples", 512);
  cfg.guard_tol = cli.get_double("guard-tol", 1e-4);
  const int max_workers = static_cast<int>(cli.get_int("max-workers", 8));
  const bool csv = cli.has("csv");
  cfg.verify_dag = cli.has("verify-dag");
  cfg.analyze_dag = cli.has("analyze-dag");
  cfg.early_release = cli.has("release");
  cli.reject_unknown();

  std::printf(
      "HSS construction scaling: %s kernel, N=%lld leaf=%lld rank=%lld "
      "samples=%lld guard=%.1e\n",
      cfg.kernel.c_str(), static_cast<long long>(cfg.n),
      static_cast<long long>(cfg.leaf_size), static_cast<long long>(cfg.max_rank),
      static_cast<long long>(cfg.sample_cols), cfg.guard_tol);

  TextTable table({"workers", "build (s)", "speedup", "factor (s)", "build/factor",
                   "rank", "max samples", "peak MB", "solve err"});
  double base_build = 0.0;
  for (int w = 1; w <= max_workers; w *= 2) {
    cfg.workers = w;
    auto out = driver::run_construction(cfg);
    if (w == 1) base_build = out.build_seconds;
    table.add_row({std::to_string(w), fmt_fixed(out.build_seconds, 3),
                   fmt_fixed(base_build / out.build_seconds, 2),
                   fmt_fixed(out.factor_seconds, 3),
                   fmt_fixed(out.build_seconds / out.factor_seconds, 2),
                   std::to_string(out.rank_used),
                   std::to_string(out.max_samples),
                   fmt_fixed(static_cast<double>(out.peak_matrix_bytes) / 1048576.0, 1),
                   fmt_sci(out.solve_error)});
    std::printf("  %d workers: build %.3f s, factor %.3f s (%lld+%lld tasks, "
                "%lld guard growths, peak %.1f MB)\n",
                w, out.build_seconds, out.factor_seconds,
                static_cast<long long>(out.build_tasks),
                static_cast<long long>(out.factor_tasks),
                static_cast<long long>(out.guard_growths),
                static_cast<double>(out.peak_matrix_bytes) / 1048576.0);
    if (cfg.analyze_dag)
      std::printf("    analyzer: %.1f ms, static serial-peak bound %.1f MB\n",
                  out.analyze_seconds * 1e3,
                  static_cast<double>(out.static_peak_bytes) / 1048576.0);
  }
  std::printf("%s\n", csv ? table.to_csv().c_str() : table.to_string().c_str());
  return 0;
}
