// Regression for the ROADMAP open item that motivated the accuracy guard:
// sampled HSS construction of the short-correlation Matérn covariance
// (N=8192 scattered sites, the kriging_matern setting) with a fixed 512
// column sample silently destroys positive definiteness — the failure only
// surfaces as a "not positive definite" pivot error deep inside the ULV
// Cholesky. The guarded adaptive builder must (a) reproduce that diagnosis
// honestly when disabled and (b) recover automatically when enabled, with a
// solve residual at the direct-solver level. The recovered factorization
// also pins solve_refined's residual-history contract and the solve's
// residual against the true (uncompressed) kernel operator.
//
// Carries the `slow` label: the recovery build grows node samples toward
// the full complement wherever the rank-80 truncation floor sits above the
// guard tolerance, which costs tens of seconds at this N.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "format/accessor.hpp"
#include "format/hss_builder.hpp"
#include "format/hss_builder_tasks.hpp"
#include "geometry/cluster_tree.hpp"
#include "kernels/kernel_matrix.hpp"
#include "kernels/kernels.hpp"
#include "ulv/hss_ulv.hpp"

namespace hatrix {
namespace {

using la::index_t;

/// The kriging_matern example's covariance: Matérn(sigma=1, mu=0.03,
/// rho=0.5) on N scattered sites with a 1e-4 nugget.
struct KrigingProblem {
  geom::Domain sites;
  std::unique_ptr<geom::ClusterTree> tree;
  kernels::Matern cov{1.0, 0.03, 0.5};
  std::unique_ptr<kernels::KernelMatrix> km;

  explicit KrigingProblem(index_t n) {
    Rng rng(11);
    sites = geom::random2d(n, rng);
    tree = std::make_unique<geom::ClusterTree>(sites, 256);
    km = std::make_unique<kernels::KernelMatrix>(cov, tree->points(), 1e-4);
  }
};

TEST(HssGuardRegression, UnguardedUnderSamplingDestroysPositiveDefiniteness) {
  KrigingProblem p(8192);
  fmt::KernelAccessor acc(*p.km);
  // guard_tol = 0: the pre-guard behavior — 512 sampled columns per node,
  // trusted blindly. Construction "succeeds"...
  fmt::HSSMatrix h = fmt::build_hss(
      acc, {.leaf_size = 256, .max_rank = 80, .sample_cols = 512});
  // ...and the damage surfaces later, in the Cholesky layer.
  EXPECT_THROW(ulv::HSSULV::factorize(h), Error);
}

TEST(HssGuardRegression, AdaptiveGuardRecoversFactorizationAndResidual) {
  KrigingProblem p(8192);
  fmt::KernelAccessor acc(*p.km);
  fmt::HSSBuildReport rep;
  // Same 512 initial samples; the guard (at the nugget scale, the smallest
  // eigenvalue of the covariance) grows each node until its probe passes.
  fmt::HSSMatrix h = fmt::build_hss(
      acc,
      {.leaf_size = 256, .max_rank = 80, .sample_cols = 512, .guard_tol = 1e-4},
      2, &rep);
  EXPECT_GT(rep.total_growths, 0);
  EXPECT_GT(rep.max_samples, 512);

  auto f = ulv::HSSULV::factorize(h);  // must not throw
  Rng rng(7);
  std::vector<double> b = rng.normal_vector(8192);
  EXPECT_LT(ulv::ulv_solve_error(h, f, b), 1e-6);

  // Iterative refinement reports iterations + 1 relative residuals against
  // the compressed operator, finite and non-negative, ending at the
  // direct-solver level.
  std::vector<double> hist;
  (void)f.solve_refined(b, 2, &hist);
  ASSERT_EQ(hist.size(), 3u);
  for (double r : hist) {
    EXPECT_TRUE(std::isfinite(r));
    EXPECT_GE(r, 0.0);
  }
  EXPECT_LT(hist.back(), 1e-8)
      << "refinement failed to converge on the compressed operator";

  // Residual against the true kernel operator (streamed dense matvec, not
  // the compressed surrogate): the compression error amplified by cond(A).
  // The 1e-4 nugget puts cond(A) near 1e4, so guard_tol = 1e-4 lands around
  // 1e-2.
  const std::vector<double> x = f.solve(b);
  std::vector<double> ax;
  p.km->matvec(x, ax);
  double rn = 0.0, bn = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    rn += (b[i] - ax[i]) * (b[i] - ax[i]);
    bn += b[i] * b[i];
  }
  EXPECT_LT(std::sqrt(rn / bn), 0.1);
}

}  // namespace
}  // namespace hatrix
