// Geostatistics: kriging (Gaussian-process interpolation) with the Matérn
// covariance from Table 3 — the statistics application the paper's
// evaluation targets.
//
// Synthetic truth f(x, y) is sampled at N scattered sites with noise; the
// kriging predictor at M held-out targets needs K^{-1} (solves against the
// N x N Matérn covariance), done here through the HSS-ULV factorization
// served from the keyed SolverCache: a hyperparameter sweep that revisits a
// nugget value gets the already-built factorization back instead of paying
// construction + factorization again. The prediction variance needs
// K^{-1} K_* for the whole N x M cross-covariance panel — one blocked
// multi-RHS solve instead of M vector solves.
//
//   ./kriging_matern [--n 8192] [--targets 500] [--nugget 1e-4]
//                    [--sweep 1e-4,1e-3,1e-4] [--samples 512]
//                    [--guard-tol 1e-4] [--workers 1]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "format/accessor.hpp"
#include "format/hss_builder_tasks.hpp"
#include "geometry/cluster_tree.hpp"
#include "hatrix/solver_cache.hpp"
#include "kernels/kernel_matrix.hpp"
#include "kernels/kernels.hpp"
#include "ulv/hss_ulv.hpp"

using namespace hatrix;

namespace {

double truth(const geom::Point& p) {
  return std::sin(6.0 * p[0]) * std::cos(4.0 * p[1]) + 0.5 * p[0] * p[1];
}

std::vector<double> parse_sweep(const std::string& spec, double fallback) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    out.push_back(std::stod(spec.substr(pos, comma - pos)));
    pos = comma + 1;
  }
  if (out.empty()) out.push_back(fallback);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const la::index_t n = cli.get_int("n", 8192);
  const la::index_t m = cli.get_int("targets", 500);
  const double nugget = cli.get_double("nugget", 1e-4);
  // The short correlation length (mu=0.03) means a fixed column sample can
  // miss near-range interactions and silently destroy positive definiteness
  // of the compressed covariance. The accuracy guard grows the sample per
  // node until its residual probe passes, so the initial 512 is just a
  // starting point, not a correctness knob. The guard tolerance must sit at
  // or below the smallest eigenvalue scale of the covariance — the nugget —
  // or compression error can push eigenvalues below zero.
  const la::index_t samples = cli.get_int("samples", 512);
  const int workers = static_cast<int>(cli.get_int("workers", 1));
  // Comma-separated nugget values to fit in sequence (default: just
  // --nugget). Revisited values hit the factorization cache, e.g.
  // --sweep 1e-4,1e-3,1e-4 builds twice and serves the third fit for free.
  const std::vector<double> sweep =
      parse_sweep(cli.get_string("sweep", ""), nugget);
  const bool explicit_guard = cli.has("guard-tol");
  const double guard_tol_flag = cli.get_double("guard-tol", 1e-4);
  cli.reject_unknown();

  std::printf(
      "Kriging with Matérn(sigma=1, mu=0.03, rho=0.5), %lld sites, %lld targets, "
      "%zu sweep step(s)\n",
      static_cast<long long>(n), static_cast<long long>(m), sweep.size());

  Rng rng(11);
  geom::Domain sites = geom::random2d(n, rng);
  geom::ClusterTree tree(sites, 256);

  kernels::Matern cov(1.0, 0.03, 0.5);

  // Observations y_i = f(x_i) + noise.
  std::vector<double> y(static_cast<std::size_t>(n));
  for (la::index_t i = 0; i < n; ++i)
    y[static_cast<std::size_t>(i)] =
        truth(tree.points()[static_cast<std::size_t>(i)]) +
        std::sqrt(nugget) * rng.normal();

  // Held-out targets and their cross-covariance panel K_* (n x m): column t
  // is k_* for target t. Solved in one blocked multi-RHS pass per fit.
  geom::Domain targets = geom::random2d(m, rng);
  la::Matrix kstar(n, m);
  for (la::index_t t = 0; t < m; ++t)
    for (la::index_t i = 0; i < n; ++i)
      kstar(i, t) = cov(targets.points[static_cast<std::size_t>(t)],
                        tree.points()[static_cast<std::size_t>(i)]);

  driver::SolverCache cache(/*capacity=*/4);

  for (double nug : sweep) {
    // The guard tolerance must track the nugget (see above) unless pinned.
    const double guard_tol =
        explicit_guard ? guard_tol_flag : std::min(1e-4, nug);
    // The nugget regularizes K = C + nug*I, so it is part of the operator's
    // identity: the cache key's kernel id encodes it alongside the Matérn
    // parameters.
    const fmt::HSSOptions opts{.leaf_size = 256, .max_rank = 80,
                               .sample_cols = samples, .guard_tol = guard_tol};
    const driver::SolverKey key = driver::make_solver_key(
        "matern(sigma=1,mu=0.03,rho=0.5)+nugget=" + std::to_string(nug),
        tree.points(), opts);

    WallTimer timer;
    const std::int64_t misses_before = cache.stats().misses;
    auto op = cache.get_or_build(key, [&](fmt::HSSBuildReport& rep) {
      kernels::KernelMatrix km(cov, tree.points(), nug);
      fmt::KernelAccessor acc(km);
      return fmt::build_hss(acc, opts, workers, &rep);
    });
    const double fit_seconds = timer.seconds();
    const bool was_hit = cache.stats().misses == misses_before;
    const ulv::HSSULV& f = op->factorization();

    std::vector<double> alpha = f.solve(y);  // K^{-1} y, the kriging weights
    la::Matrix kinv_kstar = f.solve(kstar);  // K^{-1} K_*, blocked (m RHS)

    const auto& rep = op->build_report();
    std::printf(
        "nugget %.0e: factorization %s in %.3f s (max rank %lld, sample "
        "%lld->%lld over %lld rounds, %lld rank escapes)\n",
        nug, was_hit ? "served from cache" : "built",
        fit_seconds, static_cast<long long>(op->matrix().max_rank_used()),
        static_cast<long long>(samples), static_cast<long long>(rep.max_samples),
        static_cast<long long>(rep.total_growths),
        static_cast<long long>(rep.rank_escapes));

    // Predict at the held-out targets: f̂(t) = k_*ᵀ alpha; prediction
    // variance sigma²(t) = cov(t,t) - k_*ᵀ K^{-1} k_* uses the panel solve.
    double se = 0.0, var = 0.0, mean = 0.0, mean_pred_sd = 0.0;
    for (la::index_t t = 0; t < m; ++t)
      mean += truth(targets.points[static_cast<std::size_t>(t)]);
    mean /= static_cast<double>(m);
    for (la::index_t t = 0; t < m; ++t) {
      double pred = 0.0, kvar = 0.0;
      for (la::index_t i = 0; i < n; ++i) {
        pred += kstar(i, t) * alpha[static_cast<std::size_t>(i)];
        kvar += kstar(i, t) * kinv_kstar(i, t);
      }
      mean_pred_sd += std::sqrt(std::max(0.0, 1.0 - kvar));
      const double tv = truth(targets.points[static_cast<std::size_t>(t)]);
      se += (pred - tv) * (pred - tv);
      var += (tv - mean) * (tv - mean);
    }
    std::printf(
        "  prediction RMSE %.4f (truth std %.4f) — R^2 = %.4f, mean pred sd "
        "%.4f\n",
        std::sqrt(se / static_cast<double>(m)),
        std::sqrt(var / static_cast<double>(m)), 1.0 - se / var,
        mean_pred_sd / static_cast<double>(m));
  }

  const auto stats = cache.stats();
  std::printf("solver cache: %lld hit(s), %lld miss(es), %zu resident\n",
              static_cast<long long>(stats.hits),
              static_cast<long long>(stats.misses), stats.size);
  return 0;
}
