// Solve-phase throughput: one shared HSS-ULV factorization served to many
// concurrent clients, swept over RHS batch width x client threads. The
// blocked multi-RHS path applies every level's rotations and triangular
// solves to whole panels via gemm/trsm, so its per-column cost drops as the
// batch widens; the column-loop oracle (the pre-blocked code path) is timed
// on the same workload to report the speedup, and its output is compared
// entry-for-entry (the blocked path is bit-identical by construction).
// Each cell repeats its pass until 0.5 s have accumulated (at least 5
// passes) and reports the median pass with the quartiles beside it.
//
//   ./bench_solve_throughput [--n 2048] [--leaf 256] [--rank 60]
//                            [--kernel yukawa] [--samples 256]
//                            [--guard-tol 1e-4] [--solves 64]
//                            [--max-clients 4] [--json BENCH_solve.json]
//                            [--csv]
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/bench_json.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "hatrix/drivers.hpp"
#include "linalg/blas.hpp"

using namespace hatrix;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  driver::SolveThroughputExperiment cfg;
  cfg.n = cli.get_int("n", 2048);
  cfg.leaf_size = cli.get_int("leaf", 256);
  cfg.max_rank = cli.get_int("rank", 60);
  cfg.kernel = cli.get_string("kernel", "yukawa");
  cfg.sample_cols = cli.get_int("samples", 256);
  cfg.guard_tol = cli.get_double("guard-tol", 1e-4);
  cfg.solves = cli.get_int("solves", 64);
  const int max_clients = static_cast<int>(cli.get_int("max-clients", 4));
  const std::string json_path = cli.get_string("json", "BENCH_solve.json");
  const bool csv = cli.has("csv");
  cli.reject_unknown();

  std::printf(
      "Solve throughput: %s kernel, N=%lld leaf=%lld rank=%lld, %lld RHS "
      "columns per cell, rounded up to whole panels per client; median pass "
      "of >= %.2f s per cell\n",
      cfg.kernel.c_str(), static_cast<long long>(cfg.n),
      static_cast<long long>(cfg.leaf_size), static_cast<long long>(cfg.max_rank),
      static_cast<long long>(cfg.solves), driver::kSolveThroughputMinSeconds);

  const std::vector<la::index_t> widths{1, 4, 16, 64};
  TextTable table({"batch", "clients", "columns", "passes", "solves/s", "q1..q3",
                   "blocked (s)", "oracle (s)", "speedup", "max |diff|", "solve err"});
  BenchJson json("solve_throughput");
  json.row()
      .add("row", std::string("provenance"))
      .add("compiler", std::string(__VERSION__))
      .add("la_backend", std::string(la::backend_name(la::backend())))
      .add("hardware_concurrency",
           static_cast<std::int64_t>(std::thread::hardware_concurrency()))
      .add("kernel", cfg.kernel)
      .add("leaf", static_cast<std::int64_t>(cfg.leaf_size))
      .add("rank", static_cast<std::int64_t>(cfg.max_rank))
      .add("samples", static_cast<std::int64_t>(cfg.sample_cols))
      .add("solves_requested", static_cast<std::int64_t>(cfg.solves))
      .add("min_seconds_per_cell", driver::kSolveThroughputMinSeconds);

  for (la::index_t w : widths) {
    for (int c = 1; c <= max_clients; c *= 2) {
      cfg.batch = w;
      cfg.clients = c;
      // The oracle repeats the whole workload column by column; measuring it
      // once per batch width (at 1 client) keeps the sweep fast while still
      // reporting the blocked-vs-oracle speedup where it matters.
      cfg.compare_oracle = c == 1;
      auto out = driver::run_solve_throughput(cfg);
      table.add_row({std::to_string(w), std::to_string(c),
                     std::to_string(out.solved_columns), std::to_string(out.passes),
                     fmt_fixed(out.solves_per_second, 1),
                     fmt_fixed(out.solves_per_second_q1, 0) + ".." +
                         fmt_fixed(out.solves_per_second_q3, 0),
                     fmt_fixed(out.blocked_seconds, 4),
                     cfg.compare_oracle ? fmt_fixed(out.oracle_seconds, 4) : "-",
                     cfg.compare_oracle ? fmt_fixed(out.speedup_vs_oracle, 2) : "-",
                     cfg.compare_oracle ? fmt_sci(out.max_col_diff) : "-",
                     fmt_sci(out.solve_error)});
      json.row()
          .add("batch", static_cast<std::int64_t>(w))
          .add("clients", static_cast<std::int64_t>(c))
          .add("solved_columns", static_cast<std::int64_t>(out.solved_columns))
          .add("passes", static_cast<std::int64_t>(out.passes))
          .add("solves_per_second", out.solves_per_second)
          .add("solves_per_second_q1", out.solves_per_second_q1)
          .add("solves_per_second_q3", out.solves_per_second_q3)
          .add("blocked_seconds", out.blocked_seconds)
          .add("oracle_seconds", out.oracle_seconds)
          .add("speedup_vs_oracle", out.speedup_vs_oracle)
          .add("max_col_diff", out.max_col_diff)
          .add("solve_error", out.solve_error)
          .add("n", static_cast<std::int64_t>(cfg.n))
          .add("rank_used", static_cast<std::int64_t>(out.rank_used));
      std::printf("  batch %3lld x %d client(s): %.1f solves/s%s\n",
                  static_cast<long long>(w), c, out.solves_per_second,
                  cfg.compare_oracle
                      ? (" (vs oracle: " + fmt_fixed(out.speedup_vs_oracle, 2) +
                         "x, max diff " + fmt_sci(out.max_col_diff) + ")")
                            .c_str()
                      : "");
    }
  }

  std::printf("%s\n", csv ? table.to_csv().c_str() : table.to_string().c_str());
  if (!json_path.empty()) {
    if (json.write(json_path))
      std::printf("wrote %s\n", json_path.c_str());
    else
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
  }
  return 0;
}
