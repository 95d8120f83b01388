// End-to-end benchmark of the direct solver: construct -> factor -> solve at
// fixed N on 4 workers, with each phase's wall time as the end-to-end
// result and, in a separate traced run (--trace), that time attributed to
// every layer below it.
//
// A chain rep calls the layers' public entry points directly and times each
// call from outside; nothing inside src/ is instrumented:
//   build   fmt::emit_hss_build_dag -> rt::ThreadPoolExecutor::run
//           -> fmt::extract_built_hss
//   factor  ulv::emit_hss_ulv_dag -> run -> ulv::extract_factorization
//   solve   ulv::HSSULV::solve of one RHS (kriging: then 8 64-column panels)
// The point set, its cluster tree and the kernel matrix are the problem's
// input and are made in set-up, which is repeated five times per run (its
// median is setup_s) before one untimed warm-up rep.
//
// Workloads — each is chosen so a different ceiling dominates it:
//   yukawa-131k        Yukawa on a 2D grid, N=131072, leaf 256, rank 80,
//                      512 samples. The paper-scale O(N) chain with coarse
//                      tasks: gemm-bound compress and diag_product dominate
//                      and runtime overhead is well under 1%, so a scheduler
//                      change should not move it.
//   yukawa-fine-64k    Same kernel, N=65536, leaf 32, rank 8, 64 samples:
//                      ~8k tiny tasks per DAG, so DAG emission and discovery
//                      are a large share of the chain. Executor changes
//                      show here and kernel-rate changes barely do. Also
//                      runs five 1-worker reps that must match the 4-worker
//                      result bit for bit.
//   matern-kriging-4k  Matérn(1, 0.03, 0.5) + nugget 1e-4 on 4096 scattered
//                      sites: the kriging use case. Guard growth and rank
//                      escapes dominate the build, rank-640 blocks make
//                      potrf/trsm/syrk and the serial top of the tree
//                      matter, and the chain solves the observations plus a
//                      512-target cross-covariance panel (8 x 64 columns).
//   solve-stream-32k   Yukawa grid, N=32768, factored once per set-up
//                      through driver::SolverCache. A rep is one request
//                      round: 25 closed-loop batch-1 requests from one
//                      client (make_solver_key + get_or_build hit + solve),
//                      then 4 clients x 4 requests of a 64-column panel. It
//                      does no construction or factorization after set-up.
//
// End-to-end metrics are medians over a run's passing reps. chain_s is the
// rep's wall time (stream: the round) and build_s / factor_s / solve_s its
// phases (stream: build and factorization come from the cache fills in
// set-up, solve_s is the 4-client panel phase). A Yukawa chain's solve
// phase is one batch-1 solve, so there solve_s is the median over every
// batch-1 solve of the run, the same samples as solve_b1_p50_ms; two reps'
// worth alone did not repeat between runs. solve_b1_p50_ms and
// solve_b64_cols_per_s time batch-1 solves and 64-column panels: the
// chain's own, plus batch-1 solves on the factorization of the warm-up and
// of every rep for half that rep's chain_s (on a shared host a batch-1
// solve's speed drifts by ±20% over seconds, so the samples must cover the
// whole run, not one burst), and (Yukawa chains) 3 panel solves on the newest factorization
// after the reps; or the stream's requests (b64 then counts all 4 clients'
// columns per second). peak_mb is the Matrix
// allocator's high-water mark over a rep.
//
// The operator of each workload is fixed: grid or a fixed site draw, and
// the default HSSOptions::seed. On the kriging sites a different draw or
// sampling seed moves the guard's work, and the build time, by up to 2x.
// --seed draws the right-hand sides: RHS and panels, kriging observations,
// noise and targets, and the residual rows. A rep fails (and counts in
// `failed` rather than aborting) when it throws hatrix::Error, when its
// Eq. 19 error exceeds 1e-10, when its solution differs bit for bit from
// the first passing rep's, when 1-worker and 4-worker results differ, or
// when the true residual (the kernel operator itself applied on 1024
// seeded rows) exceeds 10x the workload's reference.
//
//   bench_e2e --workloads all|<name>,... --seed S [--seconds T] [--trace]
//             [--trace-dir DIR] [--json FILE] [--git-sha SHA]
//
// Workload names: yukawa-131k, yukawa-fine-64k, matern-kriging-4k,
// solve-stream-32k. --seconds bounds the timed reps of each workload
// (default 10); at least two reps run, so --seconds 0 runs exactly two.
// --json writes one document: a provenance row, a units row, then one row
// per workload. --trace adds the per-layer metrics and writes
// <trace-dir>/<workload>.trace.json (Chrome/Perfetto trace-event format) for
// the last traced rep. Exit code: 0 all checks passed, 2 some rep failed a
// check, 1 error.
//
// trace_overhead_pct compares the median chain_s of traced reps with that of
// plain reps, which a traced run alternates. It is noise-level by
// construction: the executor records task traces on every run, and the
// per-layer summaries are computed after a rep's timed spans close, so a
// traced rep differs from a plain one only by the handful of harness spans it
// records. On yukawa-131k and matern-kriging-4k a traced run fits one rep of
// each kind, so there it is one rep minus another. It shows that tracing
// does not distort the attributed times; it is not a measurement of tracing
// cost.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/bench_json.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/flops.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "format/accessor.hpp"
#include "format/hss_builder_tasks.hpp"
#include "geometry/cluster_tree.hpp"
#include "hatrix/solver_cache.hpp"
#include "kernels/kernel_matrix.hpp"
#include "kernels/kernels.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
#include "runtime/thread_pool_executor.hpp"
#include "runtime/trace.hpp"
#include "ulv/hss_ulv.hpp"
#include "ulv/hss_ulv_tasks.hpp"

#ifndef HATRIX_E2E_BUILD_TYPE
#define HATRIX_E2E_BUILD_TYPE "unknown"
#endif
#ifndef HATRIX_E2E_CXX_FLAGS
#define HATRIX_E2E_CXX_FLAGS ""
#endif
#ifndef HATRIX_E2E_KERNEL_FLAGS
#define HATRIX_E2E_KERNEL_FLAGS ""
#endif

using namespace hatrix;
using la::index_t;

namespace {

constexpr int kWorkers = 4;
constexpr index_t kPanelCols = 64;
constexpr int kClients = 4;
constexpr int kPanelsPerClient = 4;
constexpr int kSetups = 5;
constexpr int kMinReps = 2;
constexpr double kB1Share = 0.5;  // batch-1 sampling time per rep, share of chain_s
constexpr int kB64Solves = 3;     // batch-64 solves after a chain workload's reps
constexpr double kSolveErrorBound = 1e-10;
constexpr double kResidualSlack = 10.0;
constexpr index_t kResidualRows = 1024;
constexpr double kMB = 1048576.0;
constexpr std::uint64_t kSiteSeed = 11;  // the kriging example's site stream

enum class Geometry { Grid, Random };

struct Workload {
  const char* name;
  const char* kernel;  // kernels::make_kernel name
  Geometry geometry;
  index_t n;
  index_t leaf;
  index_t rank;
  index_t samples;
  double guard_tol;
  double nugget;         // diagonal shift of the kernel matrix
  index_t panels;        // 64-column RHS panels in the problem
  bool chain_panels;     // a chain rep solves every panel after the batch-1 RHS
  bool stream;           // factor once in set-up; a rep is a request round
  int serial_reps;       // 1-worker reps checked bit for bit against 4 workers
  int b1_requests;       // batch-1 requests per round (stream only)
  double residual_ref;   // true residual at seed 1 (accuracy.true_residual in
                         // BENCH_e2e_traced.json); a rep fails above 10x
};

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> w = {
      {"yukawa-131k", "yukawa", Geometry::Grid, 131072, 256, 80, 512, 1e-4, 0.0,
       1, false, false, 0, 0, 1.59e-6},
      {"yukawa-fine-64k", "yukawa", Geometry::Grid, 65536, 32, 8, 64, 1e-4, 0.0,
       1, false, false, 5, 0, 1.71e-6},
      {"matern-kriging-4k", "matern", Geometry::Random, 4096, 256, 80, 512, 1e-4,
       1e-4, 8, true, false, 0, 0, 3.18e-4},
      {"solve-stream-32k", "yukawa", Geometry::Grid, 32768, 256, 80, 512, 1e-4,
       0.0, 1, false, true, 0, 25, 1.99e-7},
  };
  return w;
}

// ---------------------------------------------------------------- stats --

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// The highest value with at least ten samples beyond it, but never below the
// median: with fewer than 21 samples no tail is resolved and this is the
// median.
double tail(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return v[std::max(n / 2, n > 10 ? n - 11 : 0)];
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}
constexpr std::uint64_t kFnvSeed = 1469598103934665603ULL;

std::uint64_t hash_of(const std::vector<double>& x) {
  return fnv1a(x.data(), x.size() * sizeof(double), kFnvSeed);
}
std::uint64_t hash_of(const la::Matrix& x) {
  return fnv1a(x.data(), static_cast<std::size_t>(x.rows() * x.cols()) * sizeof(double),
               kFnvSeed);
}

// ------------------------------------------------------------- problem --

// Smooth field the kriging observations sample (plus nugget noise).
double truth(const geom::Point& p) {
  return std::sin(6.0 * p[0]) * std::cos(4.0 * p[1]) + 0.5 * p[0] * p[1];
}

// The solver's input: tree-ordered points, the kernel operator over them,
// and the right-hand sides every rep solves.
struct Problem {
  std::unique_ptr<kernels::Kernel> kernel;
  std::unique_ptr<geom::ClusterTree> tree;
  std::unique_ptr<kernels::KernelMatrix> km;
  std::unique_ptr<fmt::KernelAccessor> acc;
  fmt::HSSOptions opts;
  std::string kernel_id;          // operator identity for the solver cache
  std::vector<double> b;          // batch-1 RHS (kriging: the observations)
  std::vector<la::Matrix> panels; // 64-column RHS panels (kriging: K_* split)
  bool chain_panels = false;      // chain reps solve the panels too;
                                  // otherwise panels[0](:, 0) == b
  std::vector<std::vector<double>> requests;  // stream batch-1 RHS pool
  std::vector<index_t> residual_rows;
  double tree_s = 0.0;
};

// The operator — point set, tree, kernel, compression options — is fixed
// per workload; `seed` draws the right-hand sides (see the file comment).
Problem set_up(const Workload& w, std::uint64_t seed) {
  Problem p;
  Rng site_rng(kSiteSeed);
  const geom::Domain dom = w.geometry == Geometry::Grid ? geom::grid2d(w.n)
                                                        : geom::random2d(w.n, site_rng);
  WallTimer t;
  p.tree = std::make_unique<geom::ClusterTree>(dom, w.leaf);
  p.tree_s = t.seconds();
  p.kernel = kernels::make_kernel(w.kernel);
  p.km = std::make_unique<kernels::KernelMatrix>(*p.kernel, p.tree->points(), w.nugget);
  p.acc = std::make_unique<fmt::KernelAccessor>(*p.km);
  p.opts = fmt::HSSOptions{.leaf_size = w.leaf,
                           .max_rank = w.rank,
                           .sample_cols = w.samples,
                           .guard_tol = w.guard_tol};
  Rng rng(seed);
  p.kernel_id = p.kernel->name() + "+nugget=" + std::to_string(w.nugget);
  p.chain_panels = w.chain_panels;
  const auto& pts = p.tree->points();

  if (w.nugget > 0.0) {
    // Kriging: observations y = f(x) + noise, and the cross-covariance
    // K_* between the sites and 64*panels held-out targets.
    p.b.resize(static_cast<std::size_t>(w.n));
    for (index_t i = 0; i < w.n; ++i)
      p.b[static_cast<std::size_t>(i)] =
          truth(pts[static_cast<std::size_t>(i)]) + std::sqrt(w.nugget) * rng.normal();
    const geom::Domain targets = geom::random2d(w.panels * kPanelCols, rng);
    for (index_t q = 0; q < w.panels; ++q) {
      la::Matrix kstar(w.n, kPanelCols);
      for (index_t t2 = 0; t2 < kPanelCols; ++t2)
        for (index_t i = 0; i < w.n; ++i)
          kstar(i, t2) = (*p.kernel)(
              targets.points[static_cast<std::size_t>(q * kPanelCols + t2)],
              pts[static_cast<std::size_t>(i)]);
      p.panels.push_back(std::move(kstar));
    }
  } else {
    p.b = rng.normal_vector(w.n);
    for (index_t q = 0; q < w.panels; ++q)
      p.panels.push_back(la::Matrix::random_normal(rng, w.n, kPanelCols));
    for (index_t i = 0; i < w.n; ++i) p.panels[0](i, 0) = p.b[static_cast<std::size_t>(i)];
  }
  if (w.stream) {
    p.requests.push_back(p.b);
    for (int r = 1; r < 4; ++r) p.requests.push_back(rng.normal_vector(w.n));
  }
  const index_t rows = std::min(w.n, kResidualRows);
  for (index_t r = 0; r < rows; ++r) p.residual_rows.push_back(rng.index(w.n));
  return p;
}

// ||(A x - b)_S|| / ||b_S|| with A the kernel operator itself (not its HSS
// approximation), on the problem's seeded row sample S.
double true_residual(const Problem& p, const std::vector<double>& x,
                     const std::vector<double>& b) {
  const index_t n = p.km->size();
  la::Matrix row(1, n);
  double num = 0.0, den = 0.0;
  for (index_t r : p.residual_rows) {
    p.km->fill_block(r, 0, row.view());
    double ax = 0.0;
    for (index_t j = 0; j < n; ++j) ax += row(0, j) * x[static_cast<std::size_t>(j)];
    const double br = b[static_cast<std::size_t>(r)];
    num += (ax - br) * (ax - br);
    den += br * br;
  }
  return std::sqrt(num / den);
}

// --------------------------------------------------------------- spans --

// One rep's Chrome trace: the executed DAGs' task slices, written by
// rt::to_chrome_trace (pid 0, a row per worker), plus the spans the
// benchmark records around each layer call (pid 1, a row per nesting
// depth). This class adds only what to_chrome_trace cannot: the harness
// spans and the shift of each DAG from its executor's clock to the rep's.
class Trace {
 public:
  explicit Trace(bool on) : on_(on) {}
  [[nodiscard]] bool on() const { return on_; }
  [[nodiscard]] double now() const { return clock_.seconds(); }

  // Records [start, now) as `name` on harness row `depth`; returns its length.
  double close(const char* name, int depth, double start) {
    const double d = now() - start;
    if (on_)
      events_ << ",{\"name\":\"" << name << "\",\"ph\":\"X\",\"ts\":" << start * 1e6
              << ",\"dur\":" << d * 1e6 << ",\"pid\":1,\"tid\":" << depth << "}";
    return d;
  }

  // Task slices of a DAG whose executor started at `start` on this rep's clock.
  void tasks(const rt::TaskGraph& g, rt::ExecutionStats s, double start) {
    if (!on_) return;
    for (auto& tr : s.traces) {
      tr.start += start;
      tr.end += start;
    }
    const std::string slices = rt::to_chrome_trace(g, s);  // "[...]"
    if (slices.size() > 2) events_ << "," << slices.substr(1, slices.size() - 2);
  }

  [[nodiscard]] std::string render() const {
    return "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
           "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"workers\"}},"
           "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"harness\"}}" +
           events_.str() + "]}\n";
  }

 private:
  bool on_;
  WallTimer clock_;
  std::ostringstream events_;
};

// ---------------------------------------------------------------- chain --

// What one executed DAG reports about the runtime and its task kinds.
struct DagSummary {
  double tasks = 0.0;
  double discovery_s = 0.0;
  double idle_s = 0.0;       // overhead - discovery
  double utilization = 0.0;  // compute / (workers * wall)
  double cp_util = 0.0;      // critical_path_time / wall
  double compute_s = 0.0;
  std::map<std::string, double> kind_s;  // summed task time by Task::kind
};

DagSummary summarize(const rt::TaskGraph& g, const rt::ExecutionStats& s) {
  DagSummary d;
  d.tasks = static_cast<double>(g.num_tasks());
  d.discovery_s = s.discovery_total;
  d.idle_s = s.overhead_total - s.discovery_total;
  d.compute_s = s.compute_total;
  if (s.wall_time > 0.0) {
    d.utilization = s.compute_total / (s.wall_time * s.workers);
    d.cp_util = rt::critical_path_time(g, s) / s.wall_time;
  }
  for (const auto& tr : s.traces)
    if (tr.task >= 0)
      d.kind_s[g.tasks()[static_cast<std::size_t>(tr.task)].kind] += tr.duration();
  return d;
}

// One emit -> run -> extract phase.
struct Phase {
  double emit_s = 0.0, run_s = 0.0, extract_s = 0.0;
  std::uint64_t flops = 0;
  std::int64_t peak_bytes = 0;
  DagSummary dag;  // filled on traced reps
  [[nodiscard]] double seconds() const { return emit_s + run_s + extract_s; }
};

struct Built {
  std::unique_ptr<fmt::HSSMatrix> h;  // heap-pinned: HSSULV points at it
  fmt::HSSBuildReport report;
  index_t nodes = 0;     // tree nodes that built a basis
  index_t max_rank = 0;  // largest basis rank in the built matrix
  Phase phase;
};

Built build(const Problem& p, rt::ThreadPoolExecutor& ex, Trace& tr) {
  Built out;
  la::reset_matrix_peak();
  const flops::Scope fs;
  const double t0 = tr.now();
  rt::TaskGraph g;
  fmt::HSSBuildDag dag = fmt::emit_hss_build_dag(*p.acc, p.opts, g);
  out.phase.emit_s = tr.close("build.emit", 1, t0);
  const double t1 = tr.now();
  const rt::ExecutionStats st = ex.run(g);
  out.phase.run_s = tr.close("build.run", 1, t1);
  const double t2 = tr.now();
  out.report = fmt::build_report(dag);
  out.h = std::make_unique<fmt::HSSMatrix>(fmt::extract_built_hss(dag));
  out.phase.extract_s = tr.close("build.extract", 1, t2);
  tr.close("build", 0, t0);
  out.phase.flops = fs.count();
  out.phase.peak_bytes = la::matrix_bytes_peak();
  for (int l = 1; l <= out.h->max_level(); ++l) out.nodes += out.h->num_nodes(l);
  out.max_rank = out.h->max_rank_used();
  if (tr.on()) {
    out.phase.dag = summarize(g, st);
    tr.tasks(g, st, t1);
  }
  return out;
}

struct Factored {
  ulv::HSSULV f;
  std::int64_t bytes = 0;  // HSSULV::memory_bytes
  Phase phase;
  std::vector<std::pair<index_t, index_t>> partial_dims;  // PARTIAL_FACTOR (m, k)
  index_t root_dim = 0;
};

Factored factor(const fmt::HSSMatrix& h, rt::ThreadPoolExecutor& ex, Trace& tr) {
  Factored out;
  la::reset_matrix_peak();
  const flops::Scope fs;
  const double t0 = tr.now();
  rt::TaskGraph g;
  ulv::HSSULVDag dag = ulv::emit_hss_ulv_dag(h, g, /*with_work=*/true);
  out.phase.emit_s = tr.close("factor.emit", 1, t0);
  const double t1 = tr.now();
  const rt::ExecutionStats st = ex.run(g);
  out.phase.run_s = tr.close("factor.run", 1, t1);
  const double t2 = tr.now();
  out.f = ulv::extract_factorization(dag);
  out.phase.extract_s = tr.close("factor.extract", 1, t2);
  tr.close("factor", 0, t0);
  out.phase.flops = fs.count();
  out.phase.peak_bytes = la::matrix_bytes_peak();
  out.bytes = out.f.memory_bytes();
  if (tr.on()) {
    out.phase.dag = summarize(g, st);
    tr.tasks(g, st, t1);
    for (const auto& t : g.tasks()) {
      if (t.kind == "partial_factor" && t.dims.size() == 2 && t.dims[0] > t.dims[1])
        out.partial_dims.emplace_back(t.dims[0], t.dims[1]);
      if (t.kind == "potrf" && !t.dims.empty()) out.root_dim = t.dims[0];
    }
  }
  return out;
}

// One construct -> factor -> solve rep.
struct Chain {
  Built built;
  Factored fac;
  double b1_s = 0.0;               // batch-1 solve
  std::vector<double> panel_s;     // each 64-column panel solve
  std::int64_t solve_peak_bytes = 0;
  std::vector<double> x;           // solution of b
  std::uint64_t hash = 0;          // bits of x and every panel solution

  [[nodiscard]] double solve_s() const {
    double s = b1_s;
    for (double t : panel_s) s += t;
    return s;
  }
  [[nodiscard]] double chain_s() const {
    return built.phase.seconds() + fac.phase.seconds() + solve_s();
  }
  [[nodiscard]] std::int64_t peak_bytes() const {
    return std::max({built.phase.peak_bytes, fac.phase.peak_bytes, solve_peak_bytes});
  }
};

Chain run_chain(const Problem& p, rt::ThreadPoolExecutor& ex, Trace& tr) {
  Chain c;
  c.built = build(p, ex, tr);
  c.fac = factor(*c.built.h, ex, tr);
  la::reset_matrix_peak();
  const double t0 = tr.now();
  c.x = c.fac.f.solve(p.b);
  c.b1_s = tr.close("solve.b1", 1, t0);
  c.hash = hash_of(c.x);
  if (p.chain_panels)
    for (const la::Matrix& panel : p.panels) {
      const double t1 = tr.now();
      const la::Matrix xp = c.fac.f.solve(panel);
      c.panel_s.push_back(tr.close("solve.panel", 1, t1));
      c.hash = fnv1a(&c.hash, sizeof c.hash, hash_of(xp));
    }
  tr.close("solve", 0, t0);
  c.solve_peak_bytes = la::matrix_bytes_peak();
  return c;
}

// --------------------------------------------------------------- checks --

// Collects per-rep failures: a failed rep is counted, named once, and left
// out of every timing median.
struct Checks {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> reasons;

  void fail(const std::string& why) {
    ++failed;
    if (std::find(reasons.begin(), reasons.end(), why) == reasons.end())
      reasons.push_back(why);
  }
  [[nodiscard]] std::string summary() const {
    std::string s;
    for (const auto& r : reasons) s += (s.empty() ? "" : "; ") + r;
    return s;
  }
};

// Reference bits and accuracy fixed by the first successful rep.
struct Reference {
  std::optional<std::uint64_t> hash;  // x and every panel solution
  std::uint64_t x_hash = 0;           // x alone
  double solve_error = 0.0;
  double true_residual = 0.0;
};

// Checks a finished chain rep against the reference; returns true if it
// passed. The first passing rep sets the reference and pays for the
// true-residual sample (later reps are bit-identical to it or fail).
bool check_chain(const Workload& w, const Problem& p, const Chain& c, Reference& ref,
                 Checks& checks) {
  if (ref.hash) {
    if (c.hash != *ref.hash) {
      checks.fail("solution differs bit for bit from the reference rep");
      return false;
    }
    return true;
  }
  const double err = ulv::ulv_solve_error(*c.built.h, c.fac.f, p.b);
  if (!(err <= kSolveErrorBound)) {
    checks.fail("Eq. 19 solve error " + std::to_string(err) + " above 1e-10");
    return false;
  }
  const double res = true_residual(p, c.x, p.b);
  if (!(res <= kResidualSlack * w.residual_ref)) {
    checks.fail("true residual " + std::to_string(res) + " above 10x reference");
    return false;
  }
  ref = Reference{c.hash, hash_of(c.x), err, res};
  return true;
}

// --------------------------------------------------------------- stream --

using Acquire = std::function<std::shared_ptr<const ulv::HSSULV>()>;

// One request round of the stream: closed-loop batch-1 requests from one
// client, then kClients concurrent clients each making kPanelsPerClient
// 64-column panel requests. `acquire` is what a request does before it
// solves: key + cache lookup.
struct Round {
  std::vector<double> b1_s;     // each batch-1 request
  std::vector<double> panel_s;  // each panel request
  double panel_wall_s = 0.0;    // all clients' panel requests
  double wall_s = 0.0;
};

Round serve(const Problem& p, int b1_requests, const Acquire& acquire,
            const std::vector<std::uint64_t>& request_ref, std::uint64_t panel_ref,
            Checks& checks) {
  Round r;
  WallTimer wall;
  for (int i = 0; i < b1_requests; ++i) {
    const std::size_t which = static_cast<std::size_t>(i) % p.requests.size();
    ++checks.attempted;
    try {
      WallTimer t;
      const auto f = acquire();
      const std::vector<double> x = f->solve(p.requests[which]);
      r.b1_s.push_back(t.seconds());
      if (hash_of(x) != request_ref[which])
        checks.fail("batch-1 request differs bit for bit from the reference");
    } catch (const Error& e) {
      checks.fail(std::string("batch-1 request threw: ") + e.what());
    }
  }

  struct ClientResult {
    std::int64_t attempted = 0;
    std::vector<double> seconds;
    std::vector<std::string> failures;
  };
  std::vector<ClientResult> results(kClients);
  WallTimer panel_wall;
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        ClientResult& out = results[static_cast<std::size_t>(c)];
        for (int q = 0; q < kPanelsPerClient; ++q) {
          ++out.attempted;
          try {
            WallTimer t;
            const auto f = acquire();
            const la::Matrix x = f->solve(p.panels[0]);
            out.seconds.push_back(t.seconds());
            if (hash_of(x) != panel_ref)
              out.failures.emplace_back("panel request differs bit for bit");
          } catch (const std::exception& e) {
            out.failures.emplace_back(std::string("panel request threw: ") + e.what());
          }
        }
      });
    }
    for (auto& t : clients) t.join();
  }
  r.panel_wall_s = panel_wall.seconds();
  for (const auto& c : results) {
    checks.attempted += c.attempted;
    r.panel_s.insert(r.panel_s.end(), c.seconds.begin(), c.seconds.end());
    for (const auto& f : c.failures) checks.fail(f);
  }
  r.wall_s = wall.seconds();
  return r;
}

// ------------------------------------------------------ kernel isolation --

// Repeats `call` (after an untimed `prepare`) until `budget` seconds of
// timed calls have accumulated; returns GFLOP/s from the kernels' own flop
// accounting.
double gflops(const std::function<void()>& prepare, const std::function<void()>& call,
              double budget = 0.05) {
  double t = 0.0;
  std::uint64_t f = 0;
  do {
    prepare();
    const flops::Scope s;
    WallTimer w;
    call();
    t += w.seconds();
    f += s.count();
  } while (t < budget);
  return static_cast<double>(f) / t / 1e9;
}

struct KernelRates {
  double gemm = 0.0, potrf = 0.0, trsm = 0.0, syrk = 0.0, root_potrf = 0.0;
};

// gemm / potrf / trsm / syrk at the median PARTIAL_FACTOR shape (m, k):
// the diag_product gemm (m x m by m x (m-k)), the Eq. 10-12 potrf of the
// (m-k) block, the trsm of the k x (m-k) panel and its syrk update; plus
// the root Cholesky at its own size.
KernelRates kernel_rates(std::vector<std::pair<index_t, index_t>> dims, index_t root,
                         std::uint64_t seed) {
  KernelRates r;
  Rng rng(seed);
  if (!dims.empty()) {
    std::sort(dims.begin(), dims.end());
    const auto [m, k] = dims[dims.size() / 2];
    const index_t mr = m - k;
    const la::Matrix d = la::Matrix::random_normal(rng, m, m);
    const la::Matrix q = la::Matrix::random_normal(rng, m, mr);
    la::Matrix out(m, mr);
    r.gemm = gflops([] {}, [&] {
      la::gemm(1.0, d.view(), la::Trans::No, q.view(), la::Trans::No, 0.0, out.view());
    });
    const la::Matrix spd = la::Matrix::random_spd(rng, mr);
    la::Matrix work(mr, mr);
    r.potrf = gflops([&] { la::copy(spd.view(), work.view()); },
                     [&] { la::potrf(work.view()); });
    la::Matrix l = spd;
    la::potrf(l.view());
    const la::Matrix sr = la::Matrix::random_normal(rng, k, mr);
    la::Matrix b(k, mr);
    r.trsm = gflops([&] { la::copy(sr.view(), b.view()); }, [&] {
      la::trsm(la::Side::Right, la::UpLo::Lower, la::Trans::Yes, la::Diag::NonUnit, 1.0,
               l.view(), b.view());
    });
    la::Matrix ss(k, k);
    r.syrk = gflops([&] { la::fill(ss.view(), 0.0); },
                    [&] { la::syrk(-1.0, sr.view(), la::Trans::No, 1.0, ss.view()); });
  }
  if (root > 0) {
    const la::Matrix spd = la::Matrix::random_spd(rng, root);
    la::Matrix work(root, root);
    r.root_potrf = gflops([&] { la::copy(spd.view(), work.view()); },
                          [&] { la::potrf(work.view()); });
  }
  return r;
}

// Entries per second of KernelAccessor::fill_block on leaf x (leaf+samples)
// blocks at deterministic positions.
double fill_rate(const Workload& w, const Problem& p) {
  const index_t rows = w.leaf, cols = std::min(w.n, w.leaf + w.samples);
  la::Matrix blk(rows, cols);
  double t = 0.0, entries = 0.0;
  for (index_t i = 0; t < 0.1; ++i) {
    const index_t r0 = (i * rows) % (w.n - rows + 1);
    const index_t c0 = (i * 7919) % (w.n - cols + 1);
    WallTimer timer;
    p.acc->fill_block(r0, c0, blk.view());
    t += timer.seconds();
    entries += static_cast<double>(rows * cols);
  }
  return entries / t / 1e6;
}

// Median microseconds of make_solver_key and of a cache hit on `cache`.
std::pair<double, double> cache_costs(const Problem& p, driver::SolverCache& cache) {
  std::vector<double> key_us, hit_us;
  for (int i = 0; i < 21; ++i) {
    WallTimer t;
    const driver::SolverKey key = driver::make_solver_key(p.kernel_id, p.tree->points(), p.opts);
    key_us.push_back(t.seconds() * 1e6);
    t.reset();
    const auto op = cache.get_or_build(key, [](fmt::HSSBuildReport&) -> fmt::HSSMatrix {
      throw Error("solver cache miss on a resident key");
    });
    hit_us.push_back(t.seconds() * 1e6);
  }
  return {median(key_us), median(hit_us)};
}

// -------------------------------------------------------------- report --

struct Metric {
  std::string name, unit;
  double value;
};

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir = ".";
};

bool more_reps(const Options& o, int done, const std::vector<double>& rep_s,
               const WallTimer& since) {
  if (done < kMinReps) return true;
  return since.seconds() + median(rep_s) <= o.seconds;
}

void write_trace(const Options& o, const Workload& w, const Trace& tr) {
  std::filesystem::create_directories(o.trace_dir);
  const std::string path = o.trace_dir + "/" + w.name + ".trace.json";
  std::ofstream f(path);
  f << tr.render();
  if (!f) throw Error("cannot write " + path);
}

rt::ThreadPoolExecutor executor(int workers) {
  rt::ThreadPoolExecutor ex(workers);
  // Pinned off so HATRIX_VERIFY_DAG / HATRIX_ANALYZE_DAG cannot skew timings.
  ex.set_verify_dag(false);
  ex.set_analyze_dag(false);
  return ex;
}

// Per-layer metrics of the traced chain reps (medians over them; counts
// from the first, since passing reps are bit-identical).
void report_layers(std::vector<Metric>& rep, const std::vector<Chain>& traced,
                   std::uint64_t seed) {
  auto med = [&](const std::function<double(const Chain&)>& f) {
    std::vector<double> v;
    for (const auto& c : traced) v.push_back(f(c));
    return median(v);
  };
  auto kind = [](const Phase& ph, const char* k) {
    const auto it = ph.dag.kind_s.find(k);
    return it == ph.dag.kind_s.end() ? 0.0 : it->second;
  };
  const Chain& c0 = traced.front();
  const Built& b0 = c0.built;
  rep.emplace_back("format.emit_s", "s",
                   med([](const Chain& c) { return c.built.phase.emit_s; }));
  rep.emplace_back("format.compress_s", "s",
                   med([&](const Chain& c) { return kind(c.built.phase, "compress"); }));
  rep.emplace_back("format.transfer_s", "s",
                   med([&](const Chain& c) { return kind(c.built.phase, "transfer"); }));
  rep.emplace_back("format.merge_sample_s", "s",
                   med([&](const Chain& c) { return kind(c.built.phase, "merge_sample"); }));
  rep.emplace_back("format.extract_s", "s",
                   med([](const Chain& c) { return c.built.phase.extract_s; }));
  rep.emplace_back("format.guard_growths", "count",
                   static_cast<double>(b0.report.total_growths));
  rep.emplace_back("format.max_samples", "count", static_cast<double>(b0.report.max_samples));
  rep.emplace_back("format.rank_escapes", "count",
                   static_cast<double>(b0.report.rank_escapes));
  rep.emplace_back("format.max_rank", "count", static_cast<double>(b0.max_rank));
  rep.emplace_back("format.probe_accept_ratio", "ratio",
                   static_cast<double>(b0.nodes) /
                       static_cast<double>(b0.nodes + b0.report.total_growths));
  rep.emplace_back("format.build_gflop", "GFLOP", static_cast<double>(b0.phase.flops) / 1e9);

  rep.emplace_back("runtime.build_tasks", "count", b0.phase.dag.tasks);
  rep.emplace_back("runtime.factor_tasks", "count", c0.fac.phase.dag.tasks);
  rep.emplace_back("runtime.build_discovery_s", "s",
                   med([](const Chain& c) { return c.built.phase.dag.discovery_s; }));
  rep.emplace_back("runtime.factor_discovery_s", "s",
                   med([](const Chain& c) { return c.fac.phase.dag.discovery_s; }));
  rep.emplace_back("runtime.build_idle_s", "s",
                   med([](const Chain& c) { return c.built.phase.dag.idle_s; }));
  rep.emplace_back("runtime.factor_idle_s", "s",
                   med([](const Chain& c) { return c.fac.phase.dag.idle_s; }));
  rep.emplace_back("runtime.build_utilization", "ratio",
                   med([](const Chain& c) { return c.built.phase.dag.utilization; }));
  rep.emplace_back("runtime.factor_utilization", "ratio",
                   med([](const Chain& c) { return c.fac.phase.dag.utilization; }));
  rep.emplace_back("runtime.build_cp_util", "ratio",
                   med([](const Chain& c) { return c.built.phase.dag.cp_util; }));
  rep.emplace_back("runtime.factor_cp_util", "ratio",
                   med([](const Chain& c) { return c.fac.phase.dag.cp_util; }));

  rep.emplace_back("ulv.emit_s", "s", med([](const Chain& c) { return c.fac.phase.emit_s; }));
  rep.emplace_back("ulv.diag_product_s", "s",
                   med([&](const Chain& c) { return kind(c.fac.phase, "diag_product"); }));
  rep.emplace_back("ulv.partial_factor_s", "s",
                   med([&](const Chain& c) { return kind(c.fac.phase, "partial_factor"); }));
  rep.emplace_back("ulv.root_factor_s", "s",
                   med([&](const Chain& c) { return kind(c.fac.phase, "potrf"); }));
  rep.emplace_back("ulv.merge_s", "s",
                   med([&](const Chain& c) { return kind(c.fac.phase, "merge"); }));
  rep.emplace_back("ulv.extract_s", "s",
                   med([](const Chain& c) { return c.fac.phase.extract_s; }));
  rep.emplace_back("ulv.factor_gflop", "GFLOP", static_cast<double>(c0.fac.phase.flops) / 1e9);
  rep.emplace_back("ulv.factor_task_gflops", "GFLOP/s", med([](const Chain& c) {
                     return static_cast<double>(c.fac.phase.flops) / 1e9 /
                            c.fac.phase.dag.compute_s;
                   }));
  rep.emplace_back("ulv.factor_mb", "MB", static_cast<double>(c0.fac.bytes) / kMB);
  rep.emplace_back("ulv.solve_1rhs_ms", "ms", med([](const Chain& c) { return c.b1_s * 1e3; }));

  const KernelRates k = kernel_rates(c0.fac.partial_dims, c0.fac.root_dim, seed);
  rep.emplace_back("linalg.gemm_gflops", "GFLOP/s", k.gemm);
  rep.emplace_back("linalg.potrf_gflops", "GFLOP/s", k.potrf);
  rep.emplace_back("linalg.trsm_gflops", "GFLOP/s", k.trsm);
  rep.emplace_back("linalg.syrk_gflops", "GFLOP/s", k.syrk);
  rep.emplace_back("linalg.root_potrf_gflops", "GFLOP/s", k.root_potrf);
  rep.emplace_back("linalg.peak_mb_build", "MB", med([](const Chain& c) {
                     return static_cast<double>(c.built.phase.peak_bytes) / kMB;
                   }));
  rep.emplace_back("linalg.peak_mb_factor", "MB", med([](const Chain& c) {
                     return static_cast<double>(c.fac.phase.peak_bytes) / kMB;
                   }));
}

// Runs one workload and returns its report; `checks` collects failures.
std::vector<Metric> run_workload(const Workload& w, const Options& o, Checks& checks) {
  std::vector<Metric> rep;
  rt::ThreadPoolExecutor ex = executor(kWorkers);

  // Set-up, repeated; the last one is kept. For the stream it includes
  // filling the solver cache: a build on 4 workers, then the cache's own
  // factorization.
  std::vector<double> setup_s, tree_s, build_s, factor_s;
  Problem p;
  std::unique_ptr<driver::SolverCache> cache;
  std::shared_ptr<const driver::FactoredOperator> op;
  for (int s = 0; s < kSetups; ++s) {
    op.reset();
    cache.reset();
    WallTimer t;
    p = set_up(w, o.seed);
    if (w.stream) {
      cache = std::make_unique<driver::SolverCache>(4);
      WallTimer fill;
      double cache_build_s = 0.0;
      op = cache->get_or_build(
          driver::make_solver_key(p.kernel_id, p.tree->points(), p.opts),
          [&](fmt::HSSBuildReport& report) {
            Trace off(false);
            Built b = build(p, ex, off);
            cache_build_s = b.phase.seconds();
            report = b.report;
            return std::move(*b.h);
          });
      build_s.push_back(cache_build_s);
      factor_s.push_back(fill.seconds() - cache_build_s);
    }
    setup_s.push_back(t.seconds());
    tree_s.push_back(p.tree_s);
  }

  Reference ref;
  std::vector<double> chain_s, solve_s, b1_s, b64_cps, peak_mb;
  std::vector<double> panel_s;  // single 64-column panel solves (requests)
  std::vector<double> dag_chain_s, traced_s, plain_s;  // 4-worker chain reps
  std::vector<Chain> traced;                           // traced chain reps
  Trace last_trace(false);
  double warmup_s = 0.0;
  int reps = 0;

  // One checked chain rep; a failure is counted and yields nothing.
  auto attempt = [&](rt::ThreadPoolExecutor& e, bool traced_rep) -> std::optional<Chain> {
    ++checks.attempted;
    Trace tr(traced_rep);
    try {
      Chain c = run_chain(p, e, tr);
      if (!check_chain(w, p, c, ref, checks)) return std::nullopt;
      if (traced_rep) last_trace = std::move(tr);
      return c;
    } catch (const Error& err) {
      checks.fail(std::string("rep threw: ") + err.what());
      return std::nullopt;
    }
  };
  // The newest passing 4-worker rep's matrix and factorization, kept for
  // the batch-64 solves and the solver-cache fill.
  std::unique_ptr<fmt::HSSMatrix> last_h;
  ulv::HSSULV last_f;
  auto release_last = [&] {
    last_f = ulv::HSSULV();
    last_h.reset();
  };
  // Files a passing 4-worker chain rep; a traced one keeps its attribution.
  auto keep = [&](Chain&& c, bool traced_rep) {
    dag_chain_s.push_back(c.chain_s());
    (traced_rep ? traced_s : plain_s).push_back(c.chain_s());
    last_f = std::move(c.fac.f);
    last_h = std::move(c.built.h);
    if (traced_rep) traced.push_back(std::move(c));
  };
  // Batch-1 latency samples beyond a chain rep's own: solves of b on its
  // factorization for `budget` seconds (at least one), so the samples
  // spread over the whole run. Each must reproduce x's bits.
  auto sample_b1 = [&](const ulv::HSSULV& f, double budget) {
    double spent = 0.0;
    do {
      ++checks.attempted;
      WallTimer t;
      const std::vector<double> x = f.solve(p.b);
      const double s = t.seconds();
      spent += s;
      if (hash_of(x) != ref.x_hash) {
        checks.fail("batch-1 solve differs bit for bit between calls");
        continue;
      }
      b1_s.push_back(s);
    } while (spent < budget);
  };

  if (w.stream) {
    // Reference bits come from the cached factorization; its accuracy is
    // checked once, since every later request must reproduce these bits.
    const ulv::HSSULV& f = op->factorization();
    std::vector<std::uint64_t> request_ref;
    for (const auto& r : p.requests) request_ref.push_back(hash_of(f.solve(r)));
    const la::Matrix xp = f.solve(p.panels[0]);
    const std::uint64_t panel_ref = hash_of(xp);
    const std::vector<double> x = f.solve(p.b);
    ++checks.attempted;
    ref.x_hash = hash_of(x);
    ref.solve_error = ulv::ulv_solve_error(op->matrix(), f, p.b);
    ref.true_residual = true_residual(p, x, p.b);
    if (std::memcmp(xp.data(), x.data(), x.size() * sizeof(double)) != 0)
      checks.fail("panel column 0 differs from the batch-1 solve");
    else if (!(ref.solve_error <= kSolveErrorBound))
      checks.fail("Eq. 19 solve error above 1e-10");
    else if (!(ref.true_residual <= kResidualSlack * w.residual_ref))
      checks.fail("true residual above 10x reference");

    const Acquire acquire = [&]() -> std::shared_ptr<const ulv::HSSULV> {
      auto hit = cache->get_or_build(
          driver::make_solver_key(p.kernel_id, p.tree->points(), p.opts),
          [](fmt::HSSBuildReport&) -> fmt::HSSMatrix {
            throw Error("solver cache miss on a resident key");
          });
      return {hit, &hit->factorization()};
    };
    WallTimer warm;
    (void)serve(p, w.b1_requests, acquire, request_ref, panel_ref, checks);
    warmup_s = warm.seconds();

    const WallTimer since;
    while (more_reps(o, reps, chain_s, since)) {
      la::reset_matrix_peak();
      const std::int64_t failed_before = checks.failed;
      const Round r = serve(p, w.b1_requests, acquire, request_ref, panel_ref, checks);
      ++reps;
      if (checks.failed != failed_before) continue;
      chain_s.push_back(r.wall_s);
      solve_s.push_back(r.panel_wall_s);
      panel_s.insert(panel_s.end(), r.panel_s.begin(), r.panel_s.end());
      b1_s.insert(b1_s.end(), r.b1_s.begin(), r.b1_s.end());
      b64_cps.push_back(static_cast<double>(kClients * kPanelsPerClient * kPanelCols) /
                        r.panel_wall_s);
      peak_mb.push_back(static_cast<double>(la::matrix_bytes_peak()) / kMB);
    }
    // The traced run also puts the same problem through the DAG chain,
    // once traced and once plain, to attribute build and factor to layers.
    if (o.trace)
      for (int i = 0; i < 2; ++i)
        if (auto c = attempt(ex, i == 0)) keep(std::move(*c), i == 0);
  } else {
    {
      WallTimer warm;
      const std::optional<Chain> c = attempt(ex, false);
      warmup_s = warm.seconds();
      if (c) sample_b1(c->fac.f, kB1Share * c->chain_s());
    }
    const WallTimer since;
    while (more_reps(o, reps, chain_s, since)) {
      // Trace mode alternates traced and plain reps; the gap between their
      // chain_s medians is trace_overhead_pct.
      const bool traced_rep = o.trace && reps % 2 == 0;
      release_last();
      std::optional<Chain> c = attempt(ex, traced_rep);
      ++reps;
      if (!c) continue;
      chain_s.push_back(c->chain_s());
      build_s.push_back(c->built.phase.seconds());
      factor_s.push_back(c->fac.phase.seconds());
      solve_s.push_back(c->solve_s());
      b1_s.push_back(c->b1_s);
      for (double t : c->panel_s) b64_cps.push_back(static_cast<double>(kPanelCols) / t);
      panel_s.insert(panel_s.end(), c->panel_s.begin(), c->panel_s.end());
      peak_mb.push_back(static_cast<double>(c->peak_bytes()) / kMB);
      sample_b1(c->fac.f, kB1Share * c->chain_s());
      keep(std::move(*c), traced_rep);
    }
    if (!w.chain_panels && last_h) {
      // Batch-64 throughput on the newest factorization. The panel's first
      // column is b, so that column of every solution must equal x's bits.
      std::optional<std::uint64_t> panel_hash;
      for (int i = 0; i < kB64Solves; ++i) {
        ++checks.attempted;
        WallTimer t;
        const la::Matrix xp = last_f.solve(p.panels[0]);
        const double s = t.seconds();
        const std::uint64_t h = hash_of(xp);
        if (fnv1a(xp.data(), p.b.size() * sizeof(double), kFnvSeed) != ref.x_hash) {
          checks.fail("panel column 0 differs from the batch-1 solve");
          continue;
        }
        if (panel_hash && h != *panel_hash) {
          checks.fail("panel solve differs bit for bit between calls");
          continue;
        }
        panel_hash = h;
        b64_cps.push_back(static_cast<double>(kPanelCols) / s);
        panel_s.push_back(s);
      }
    }
  }
  if (chain_s.empty() || b64_cps.empty())
    throw Error(std::string(w.name) + ": no timed rep passed");

  rep.emplace_back("setup_s", "s", median(setup_s));
  rep.emplace_back("chain_s", "s", median(chain_s));
  rep.emplace_back("build_s", "s", median(build_s));
  rep.emplace_back("factor_s", "s", median(factor_s));
  const bool solve_is_b1 = !w.stream && !w.chain_panels;
  rep.emplace_back("solve_s", "s", median(solve_is_b1 ? b1_s : solve_s));
  rep.emplace_back("solve_b1_p50_ms", "ms", median(b1_s) * 1e3);
  rep.emplace_back("solve_b64_cols_per_s", "cols/s", median(b64_cps));
  rep.emplace_back("peak_mb", "MB", median(peak_mb));
  rep.emplace_back("harness.reps", "reps", static_cast<double>(reps));

  // Solver-cache costs (traced run). A chain workload moves its newest
  // matrix into a cache, whose own factorization must reproduce the DAG
  // factorization's bits; the stream's cache must do the same.
  double key_us = 0.0, hit_us = 0.0;
  if (o.trace) {
    if (!w.stream) {
      last_f = ulv::HSSULV();
      cache = std::make_unique<driver::SolverCache>(4);
      op = cache->get_or_build(
          driver::make_solver_key(p.kernel_id, p.tree->points(), p.opts),
          [&](fmt::HSSBuildReport&) { return std::move(*last_h); });
    }
    ++checks.attempted;
    if (hash_of(op->factorization().solve(p.b)) != ref.x_hash)
      checks.fail("solver-cache factorization differs from the DAG factorization");
    std::tie(key_us, hit_us) = cache_costs(p, *cache);
  }
  op.reset();
  cache.reset();
  release_last();

  // 1-worker chain reps must reproduce the 4-worker bits exactly.
  std::vector<double> serial_s;
  const int serial = std::max(w.serial_reps, o.trace ? 1 : 0);
  if (serial > 0) {
    rt::ThreadPoolExecutor ex1 = executor(1);
    for (int s = 0; s < serial; ++s)
      if (auto c = attempt(ex1, false)) serial_s.push_back(c->chain_s());
  }
  if (!o.trace) return rep;

  // ---- per-layer metrics (traced run) ----
  if (traced.empty()) throw Error(std::string(w.name) + ": no traced rep passed");
  rep.emplace_back("geometry.tree_s", "s", median(tree_s));
  rep.emplace_back("kernels.fill_mentries_per_s", "Mentries/s", fill_rate(w, p));
  report_layers(rep, traced, o.seed);
  rep.emplace_back("ulv.panel_solve_s", "s", median(panel_s));
  rep.emplace_back("hatrix.key_us", "us", key_us);
  rep.emplace_back("hatrix.cache_hit_us", "us", hit_us);

  rep.emplace_back("runtime.speedup_4w", "ratio", median(serial_s) / median(dag_chain_s));
  rep.emplace_back("accuracy.solve_error", "ratio", ref.solve_error);
  rep.emplace_back("accuracy.true_residual", "ratio", ref.true_residual);
  rep.emplace_back("solve_b1_p90_ms", "ms", percentile(b1_s, 0.9) * 1e3);
  rep.emplace_back("harness.warmup_s", "s", warmup_s);
  rep.emplace_back("harness.chain_tail_s", "s", tail(chain_s));
  rep.emplace_back("harness.b1_samples", "samples", static_cast<double>(b1_s.size()));
  rep.emplace_back("trace_overhead_pct", "%",
                   100.0 * (median(traced_s) / median(plain_s) - 1.0));
  write_trace(o, w, last_trace);
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Cli cli(argc, argv);
    Options o;
    const std::string names = cli.get_string("workloads", "");
    o.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    o.seconds = cli.get_double("seconds", 10.0);
    o.trace = cli.has("trace");
    o.trace_dir = cli.get_string("trace-dir", ".");
    const std::string json_path = cli.get_string("json", "");
    const std::string sha = cli.get_string("git-sha", "unknown");
    cli.reject_unknown();
    if (names.empty()) throw Error("--workloads all|<name>,... is required");

    std::vector<const Workload*> selected;
    std::stringstream ss(names);
    for (std::string name; std::getline(ss, name, ',');) {
      const auto before = selected.size();
      for (const auto& w : all_workloads())
        if (name == "all" || name == w.name) selected.push_back(&w);
      if (selected.size() == before)
        throw Error("unknown workload '" + name + "'");
    }

    BenchJson json("e2e");
    json.row()
        .add("row", std::string("provenance"))
        .add("git_sha", sha)
        .add("build_type", std::string(HATRIX_E2E_BUILD_TYPE))
        .add("cxx_flags", std::string(HATRIX_E2E_CXX_FLAGS))
        .add("kernel_flags", std::string(HATRIX_E2E_KERNEL_FLAGS))
        .add("compiler", std::string(__VERSION__))
        .add("la_backend", std::string(la::backend_name(la::backend())))
        .add("hardware_concurrency",
             static_cast<std::int64_t>(std::thread::hardware_concurrency()))
        .add("workers", static_cast<std::int64_t>(kWorkers))
        .add("seed", static_cast<std::int64_t>(o.seed))
        .add("seconds", o.seconds)
        .add("trace", static_cast<std::int64_t>(o.trace))
        .add("verify_dag", std::int64_t{0})
        .add("analyze_dag", std::int64_t{0});

    struct Result {
      const Workload* w;
      std::vector<Metric> rep;
      Checks checks;
    };
    std::vector<Result> results;
    std::vector<std::pair<std::string, std::string>> units;
    for (const Workload* w : selected) {
      std::printf("== %s (seed %llu%s)\n", w->name,
                  static_cast<unsigned long long>(o.seed), o.trace ? ", traced" : "");
      std::fflush(stdout);
      Result r{w, {}, {}};
      r.rep = run_workload(*w, o, r.checks);
      for (const auto& m : r.rep) {
        std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
        if (std::none_of(units.begin(), units.end(),
                         [&](const auto& u) { return u.first == m.name; }))
          units.emplace_back(m.name, m.unit);
      }
      std::printf("  attempted %lld, failed %lld%s%s\n",
                  static_cast<long long>(r.checks.attempted),
                  static_cast<long long>(r.checks.failed), r.checks.failed ? ": " : "",
                  r.checks.summary().c_str());
      std::fflush(stdout);
      results.push_back(std::move(r));
    }

    auto& urow = json.row().add("row", std::string("units"));
    for (const auto& [name, unit] : units) urow.add(name, unit);
    bool all_ok = true;
    for (const auto& r : results) {
      all_ok = all_ok && r.checks.failed == 0;
      auto& row = json.row()
                      .add("row", std::string("workload"))
                      .add("workload", std::string(r.w->name))
                      .add("correct", static_cast<std::int64_t>(r.checks.failed == 0))
                      .add("attempted", r.checks.attempted)
                      .add("failed", r.checks.failed)
                      .add("fail_reasons", r.checks.summary());
      for (const auto& m : r.rep) row.add(m.name, m.value);
    }
    if (!json_path.empty() && !json.write(json_path))
      throw Error("cannot write " + json_path);
    return all_ok ? 0 : 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}

